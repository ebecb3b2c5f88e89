"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Callable, List, Optional

from repro.utils.timer import time_call

#: Timing rounds per selection; their median is what Exp 2 and Exp 4 report.
SELECT_ROUNDS = 101


def emit(title: str, text: str) -> None:
    """Print a benchmark table with a separator (shown with pytest -s)."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}")


def alternating_medians(*calls: Callable[[], object]) -> List[float]:
    """Median wall-clock seconds of each call over ``SELECT_ROUNDS`` rounds.

    A round times every call once, in turn, so a change in host load during
    the measurement falls on all of them alike and their ratio holds. Timed
    here rather than read from the ``benchmark`` fixture's stats, which are
    None under ``--benchmark-disable``.
    """
    samples: List[List[float]] = [[] for _ in calls]
    for _ in range(SELECT_ROUNDS):
        for call, times in zip(calls, samples):
            times.append(time_call(call)[1])
    return [statistics.median(times) for times in samples]


def write_metrics_dump(experiment_id: str, results_dir: Path) -> Optional[Path]:
    """Dump the ambient metrics registry as ``<id>.prom`` next to the JSON.

    Returns None (and writes nothing) when the run recorded no metrics, so
    artefact directories only carry dumps with content. The dump is the
    Prometheus text format — diffable against another run with
    ``hdpsr trace diff old.prom new.prom``.
    """
    from repro.obs import prometheus_text
    from repro.obs.context import current_registry

    text = prometheus_text(current_registry())
    if not text:
        return None
    path = Path(results_dir) / f"{experiment_id}.prom"
    path.write_text(text)
    return path
