"""Trace/metrics context threading, plus request-scoped span propagation.

Call sites deep in the stack (the plan executors, the data path, the
repair daemon) fetch their tracer and registry from here instead of
taking extra parameters, so enabling observability is a wrapper at the
entry point:

    tracer = RecordingTracer()
    with use_tracer(tracer):
        repair_single_disk(server, algo, 0)
    write_chrome_trace(tracer, "out.json")

Backed by :mod:`contextvars`, so nested scopes restore cleanly and
``asyncio``-style contexts are isolated. A bare thread pool's workers do
**not** inherit the context variable — such a call site captures
``current_tracer()`` once on the submitting thread and passes it down;
``asyncio.to_thread``, the repair daemon's one way into a worker thread,
copies the caller's context with the call.

**Span propagation.** A :class:`SpanContext` identifies one request
(``trace_id``) and one position in its call tree (``span_id`` /
``parent_id``). ``hdpsr client`` mints a context per call, carries it over
the wire, and the daemon re-installs it with :func:`use_span`; every span
the :class:`~repro.obs.tracer.RecordingTracer` emits inside that scope is
stamped with the ids and nests as a child, so a single slow read can be
followed from the client socket down to the decode that served it.
Asyncio tasks inherit the contextvar at creation, so spans of repair
stripes submitted inside a request scope connect automatically.

Defaults: :data:`~repro.obs.tracer.NULL_TRACER` and the process-wide
:func:`~repro.obs.metrics.default_registry`.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracer import (  # noqa: F401  (re-exported)
    NULL_TRACER,
    SpanContext,
    Tracer,
    current_span,
    new_span_context,
    use_span,
)

_tracer_var: contextvars.ContextVar[Tracer] = contextvars.ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)
_registry_var: contextvars.ContextVar[MetricsRegistry] = contextvars.ContextVar(
    "repro_obs_registry", default=None
)


def current_tracer() -> Tracer:
    """The tracer in scope (the inert :data:`NULL_TRACER` by default)."""
    return _tracer_var.get()


def current_registry() -> MetricsRegistry:
    """The metrics registry in scope (process default unless overridden)."""
    return _registry_var.get() or default_registry()


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the current tracer for the ``with`` body."""
    token = _tracer_var.set(tracer)
    try:
        yield tracer
    finally:
        _tracer_var.reset(token)


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the current registry for the ``with`` body."""
    token = _registry_var.set(registry)
    try:
        yield registry
    finally:
        _registry_var.reset(token)
