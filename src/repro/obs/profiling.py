"""Profiling hooks: wall time plus optional allocation peaks.

:func:`profile` is a context manager for the hot *selection* code paths
(the AP sweep, the AS classification, PA's per-stripe splitting) and any
other block worth metering. Each run:

* fills a :class:`ProfileRecord` (wall seconds; peak allocated bytes when
  ``trace_malloc=True``);
* emits a ``profile`` span on the current tracer (wall clock domain);
* feeds ``hdpsr_profile_seconds{name=...}`` (histogram) and
  ``hdpsr_profile_runs_total{name=...}`` (counter) in the current
  metrics registry.

``tracemalloc`` costs real overhead, so allocation tracking is opt-in and
plays nicely with an already-running tracemalloc session (it will not stop
one it did not start).
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs.context import current_registry, current_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

#: Sub-second-heavy edges: selection sweeps run in micro- to milliseconds.
SELECTION_TIME_BUCKETS = (
    1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


@dataclass
class ProfileRecord:
    """Outcome of one profiled block."""

    name: str
    wall_seconds: float = 0.0
    #: Peak bytes allocated during the block (None unless trace_malloc).
    peak_bytes: Optional[int] = None


@contextmanager
def profile(
    name: str,
    trace_malloc: bool = False,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    **span_args,
) -> Iterator[ProfileRecord]:
    """Meter the ``with`` body; yields the record, filled on exit."""
    tracer = tracer if tracer is not None else current_tracer()
    registry = registry if registry is not None else current_registry()
    record = ProfileRecord(name=name)

    started_tracemalloc = False
    if trace_malloc:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            started_tracemalloc = True
        else:
            tracemalloc.reset_peak()

    t0 = time.perf_counter()
    try:
        yield record
    finally:
        record.wall_seconds = time.perf_counter() - t0
        if trace_malloc:
            _, peak = tracemalloc.get_traced_memory()
            record.peak_bytes = int(peak)
            if started_tracemalloc:
                tracemalloc.stop()
        if tracer.enabled:
            args = dict(span_args)
            if record.peak_bytes is not None:
                args["peak_bytes"] = record.peak_bytes
            tracer.complete(
                "profile", name, t0, record.wall_seconds,
                track="profile", domain="wall", **args,
            )
        registry.histogram(
            "hdpsr_profile_seconds", "Wall time of profiled blocks",
            buckets=SELECTION_TIME_BUCKETS,
        ).labels(name=name).observe(record.wall_seconds)
        registry.counter(
            "hdpsr_profile_runs_total", "Invocations of profiled blocks"
        ).labels(name=name).inc()
