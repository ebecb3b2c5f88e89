"""Text visualisations of repair timelines.

Terminal-friendly renderings of a :class:`~repro.sim.metrics.TransferReport`
— no plotting dependency, works in CI logs and SSH sessions:

* :func:`memory_occupancy_series` / :func:`render_memory_timeline` — how
  many chunk slots are busy over time (the memory-competition picture of
  the paper's Figure 1(a), reconstructed from chunk records: a chunk
  occupies its slot from transfer start until its round completes).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.metrics import TransferReport

#: Eight-level vertical bar glyphs for the occupancy chart.
_BARS = " ▁▂▃▄▅▆▇█"


def memory_occupancy_series(
    report: TransferReport, buckets: int = 60
) -> Tuple[np.ndarray, np.ndarray]:
    """Time-bucketed mean slot occupancy.

    Returns ``(bucket_start_times, mean_occupancy)``; occupancy counts a
    chunk from its transfer start to its round end (waiting chunks still
    hold their slot — that is exactly the waste ACWT measures).
    """
    if buckets < 1:
        raise ConfigurationError(f"buckets must be >= 1, got {buckets}")
    if not report.records or report.total_time <= 0:
        return np.zeros(0), np.zeros(0)
    edges = np.linspace(0.0, report.total_time, buckets + 1)
    occupancy = np.zeros(buckets)
    width = edges[1] - edges[0]
    for r in report.records:
        lo = np.searchsorted(edges, r.start, side="right") - 1
        hi = np.searchsorted(edges, r.round_end, side="left")
        for b in range(max(lo, 0), min(hi, buckets)):
            overlap = min(r.round_end, edges[b + 1]) - max(r.start, edges[b])
            if overlap > 0:
                occupancy[b] += overlap / width
    return edges[:-1], occupancy


def render_memory_timeline(
    report: TransferReport,
    capacity: Optional[int] = None,
    width: int = 60,
    label: str = "memory",
) -> str:
    """One-line occupancy sparkline plus a scale legend.

    ``capacity`` sets the bar scale (defaults to the observed peak).
    """
    times, occ = memory_occupancy_series(report, buckets=width)
    if occ.size == 0:
        return f"{label}: (empty timeline)"
    peak = float(occ.max())
    scale = float(capacity) if capacity else (peak or 1.0)
    levels = np.clip((occ / scale) * (len(_BARS) - 1), 0, len(_BARS) - 1)
    bars = "".join(_BARS[int(round(v))] for v in levels)
    return (
        f"{label} |{bars}| peak {peak:.1f}"
        + (f"/{capacity} slots" if capacity else " slots")
        + f" over {report.total_time:.2f}s"
    )
