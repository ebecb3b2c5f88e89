"""Per-chunk timelines and derived repair metrics.

The paper's quantities, computed from executed schedules:

* **total repair (transfer) time** ``T`` — the makespan;
* **ACWT** — average chunk waiting time: a chunk that finishes its
  transfer before the slowest chunk of its repair round waits
  ``round_end - own_end`` (§2.3);
* **TR** — total repair rounds per stripe, ``ceil(k / P_a)`` (§3.2, Obs. 3);
* **memory utilisation** — time-averaged fraction of chunk slots busy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ChunkRecord:
    """Timeline of one chunk's journey from disk into memory.

    Attributes:
        key: caller-defined chunk identity (usually ``(stripe, shard)``).
        job_id: the stripe job this chunk belonged to.
        round_index: repair round within the job (0-based).
        disk: source disk id, if known.
        start: simulated time the transfer began.
        end: simulated time the transfer finished.
        round_end: time the whole round finished (its slowest chunk).
    """

    key: Any
    job_id: Any
    round_index: int
    disk: Optional[int]
    start: float
    end: float
    round_end: float

    @property
    def duration(self) -> float:
        """Transfer duration of this chunk."""
        return self.end - self.start

    @property
    def wait(self) -> float:
        """Waiting time: idle residence in memory until the round completes."""
        return self.round_end - self.end


@dataclass
class TransferReport:
    """Everything the paper reports about one executed repair schedule."""

    #: Makespan: time at which the last round of the last stripe finished.
    total_time: float
    #: All chunk records, in completion order.
    records: List[ChunkRecord] = field(default_factory=list)
    #: Repair rounds executed per job (TR per stripe).
    rounds_per_job: Dict[Any, int] = field(default_factory=dict)
    #: Time-averaged memory slot utilisation in [0, 1], when available.
    memory_utilization: Optional[float] = None
    #: Per-job completion times.
    job_finish_times: Dict[Any, float] = field(default_factory=dict)

    @property
    def chunk_count(self) -> int:
        """Number of surviving chunks read."""
        return len(self.records)

    @property
    def total_waiting_time(self) -> float:
        """Sum of all chunk waiting times."""
        return float(sum(r.wait for r in self.records))

    @property
    def acwt(self) -> float:
        """Average chunk waiting time (0 when nothing was read)."""
        if not self.records:
            return 0.0
        return self.total_waiting_time / len(self.records)

    @property
    def total_rounds(self) -> int:
        """Sum of repair rounds across all stripes."""
        return int(sum(self.rounds_per_job.values()))

    @property
    def max_rounds_per_stripe(self) -> int:
        """The per-stripe TR the paper plots in Figure 4(b)."""
        if not self.rounds_per_job:
            return 0
        return max(self.rounds_per_job.values())

    def waits(self) -> List[float]:
        """All waiting times, in record order."""
        return [r.wait for r in self.records]

    def disk_blame(self) -> Dict[Any, Dict[str, float]]:
        """Bottleneck attribution per source disk, from the chunk records.

        For each executed round the *critical chunk* is the one that
        finished last; its disk is blamed for the waiting it induced on
        the round's other chunks (``sum(last_end - end_j)``). Mirrors the
        trace-level attribution in :mod:`repro.obs.analysis` so the two
        paths can cross-check each other. Returns, per disk:
        ``{"reads", "read_seconds", "critical_rounds",
        "induced_wait_seconds", "blame_share"}``.
        """
        by_round: Dict[Any, List[ChunkRecord]] = {}
        for r in self.records:
            by_round.setdefault((r.job_id, r.round_index), []).append(r)

        blame: Dict[Any, Dict[str, float]] = {}

        def _entry(disk: Any) -> Dict[str, float]:
            entry = blame.get(disk)
            if entry is None:
                entry = blame[disk] = {
                    "reads": 0.0, "read_seconds": 0.0,
                    "critical_rounds": 0.0, "induced_wait_seconds": 0.0,
                    "blame_share": 0.0,
                }
            return entry

        for r in self.records:
            entry = _entry(r.disk)
            entry["reads"] += 1
            entry["read_seconds"] += r.duration

        total_induced = 0.0
        for members in by_round.values():
            last_end = max(m.end for m in members)
            critical = max(members, key=lambda m: (m.end, str(m.key)))
            induced = sum(last_end - m.end for m in members if m is not critical)
            entry = _entry(critical.disk)
            entry["critical_rounds"] += 1
            entry["induced_wait_seconds"] += induced
            total_induced += induced
        if total_induced > 0:
            for entry in blame.values():
                entry["blame_share"] = entry["induced_wait_seconds"] / total_induced
        return blame

    def summary(self) -> Dict[str, float]:
        """Compact dictionary for tables and EXPERIMENTS.md rows."""
        return {
            "total_time": self.total_time,
            "acwt": self.acwt,
            "chunks_read": float(self.chunk_count),
            "total_rounds": float(self.total_rounds),
            "memory_utilization": (
                float(self.memory_utilization) if self.memory_utilization is not None else float("nan")
            ),
        }

    def to_csv(self, path) -> "Path":
        """Write the per-chunk timeline as CSV (for external plotting).

        Columns: key, job_id, round_index, disk, start, end, duration,
        round_end, wait.
        """
        import csv
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["key", "job_id", "round_index", "disk", "start", "end",
                 "duration", "round_end", "wait"]
            )
            for r in self.records:
                writer.writerow([
                    str(r.key), str(r.job_id), r.round_index,
                    "" if r.disk is None else r.disk,
                    f"{r.start:.9g}", f"{r.end:.9g}", f"{r.duration:.9g}",
                    f"{r.round_end:.9g}", f"{r.wait:.9g}",
                ])
        return path


def build_report(
    records: Sequence[ChunkRecord],
    rounds_per_job: Dict[Any, int],
    job_finish_times: Dict[Any, float],
    memory_utilization: Optional[float] = None,
) -> TransferReport:
    """Assemble a :class:`TransferReport`, deriving the makespan from records."""
    total = max(job_finish_times.values()) if job_finish_times else 0.0
    ordered = sorted(records, key=lambda r: (r.end, str(r.key)))
    return TransferReport(
        total_time=total,
        records=list(ordered),
        rounds_per_job=dict(rounds_per_job),
        memory_utilization=memory_utilization,
        job_finish_times=dict(job_finish_times),
    )
