"""Multi-disk failure recovery: naive vs cooperative (paper §4.4).

*Naive* repairs failed disks one at a time: for every stripe on the disk
being repaired, read k survivors and rebuild that disk's chunk — so a
stripe that lost chunks on several failed disks is read and decoded once
**per failed disk**, duplicating I/O and computation.

*Cooperative* first unions the failed disks' *stripe sets*, deduplicates,
and repairs every affected stripe exactly once, rebuilding all of its lost
chunks from a single k-survivor read (the multi-target capability of
:class:`~repro.ec.partial.PartialDecoder` on the data path).

Figure 6's example: (n,k)=(5,3), disks 4 and 5 fail, three stripes — naive
reads 15 chunks, cooperative reads 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import RepairAlgorithm
from repro.core.repair_job import plan_repair
from repro.core.scheduler import simulate
from repro.errors import StorageError
from repro.hdss.prober import ActiveProber
from repro.hdss.server import HighDensityStorageServer
from repro.obs.context import current_registry, current_tracer, use_tracer
from repro.obs.profiling import profile
from repro.obs.tracer import OffsetTracer
from repro.sim.metrics import TransferReport


@dataclass
class MultiDiskOutcome:
    """Result of a multi-disk recovery."""

    algorithm: str
    cooperative: bool
    failed_disks: List[int]
    #: Total simulated repair time (sequential per-disk phases for naive).
    total_time: float
    #: Surviving chunks read off disks (the Figure-6 currency).
    chunks_read: int
    #: Lost chunks rebuilt.
    chunks_rebuilt: int
    #: Per-phase reports: one per failed disk (naive) or a single one
    #: covering the deduplicated stripe union (cooperative).
    reports: List[TransferReport] = field(default_factory=list)
    #: Stripes processed in each phase.
    stripes_per_phase: List[int] = field(default_factory=list)
    #: Time at which the last *maximally vulnerable* stripe (the ones with
    #: the most lost chunks) was secured; one more failure before this
    #: instant would have the highest chance of losing data.
    time_to_safety: Optional[float] = None

    @property
    def total_acwt(self) -> float:
        waits = [w for rep in self.reports for w in rep.waits()]
        return float(np.mean(waits)) if waits else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm,
            "cooperative": self.cooperative,
            "failed_disks": float(len(self.failed_disks)),
            "total_time": self.total_time,
            "chunks_read": float(self.chunks_read),
            "chunks_rebuilt": float(self.chunks_rebuilt),
        }


def _run_phase(
    server: HighDensityStorageServer,
    algorithm: RepairAlgorithm,
    stripe_indices: List[int],
    select: str,
    prober: ActiveProber,
    order: str = "default",
    failed: Optional[List[int]] = None,
) -> TransferReport:
    """Plan and simulate one phase over ``stripe_indices``.

    Survivors always exclude *every* currently failed disk on the server —
    a naive per-disk phase must not try to read from the other failed
    disks.
    """
    with profile(f"plan/{algorithm.name}", stripes=len(stripe_indices)):
        planned = plan_repair(
            server, algorithm, server.failed_disks(), stripes=stripe_indices,
            select=select, prober=prober,
        )
    if order == "vulnerability":
        # Admit the most exposed stripes (fewest remaining erasures until
        # data loss) first, stably, overriding the algorithm's order.
        assert failed is not None
        lost_count = {
            row: len(server.layout[si].lost_shards(failed))
            for row, si in enumerate(stripe_indices)
        }
        planned.plan.stripe_plans.sort(key=lambda sp: -lost_count[sp.stripe_index])
    elif order != "default":
        raise StorageError(f"unknown repair order {order!r}")
    return simulate(planned, server).report


def _check_failed(server: HighDensityStorageServer, failed_disks: Sequence[int]) -> List[int]:
    failed = list(dict.fromkeys(failed_disks))
    if not failed:
        raise StorageError("no failed disks given")
    for d in failed:
        if not server.disk(d).is_failed:
            raise StorageError(f"disk {d} is healthy; fail it before repairing")
    return failed


def naive_multi_disk_repair(
    server: HighDensityStorageServer,
    algorithm_factory: Callable[[], RepairAlgorithm],
    failed_disks: Sequence[int],
    select: str = "first",
    probe_noise: float = 0.02,
) -> MultiDiskOutcome:
    """Repair each failed disk independently, in the given order.

    Every phase re-reads k survivors for each stripe on its disk — shared
    stripes are processed once per failed disk, and earlier phases' rebuilt
    chunks are *not* reused (they live on spares outside the stripe's
    placement), exactly the redundancy §4.4 calls out.
    """
    failed = _check_failed(server, failed_disks)
    algorithm = algorithm_factory()
    prober = ActiveProber(server, noise=probe_noise)

    total_time = 0.0
    chunks_read = 0
    chunks_rebuilt = 0
    reports: List[TransferReport] = []
    stripes_per_phase: List[int] = []
    tracer = current_tracer()
    for disk in failed:
        stripe_indices = server.layout.stripe_set(disk)
        if not stripe_indices:
            stripes_per_phase.append(0)
            continue
        # A fresh algorithm instance per phase: passive marks do carry over
        # in reality, so reuse the same monitor via context if desired.
        # Each phase simulates from t=0; shift its trace onto the shared
        # timeline at the phase's true start so the sequential structure
        # is visible.
        with use_tracer(OffsetTracer(tracer, total_time)):
            report = _run_phase(
                server, algorithm, list(stripe_indices), select, prober
            )
        if tracer.enabled:
            tracer.complete(
                "phase", f"repair disk {disk}", total_time, report.total_time,
                track="phases", disk=disk, stripes=len(stripe_indices),
            )
        total_time += report.total_time
        chunks_read += report.chunk_count
        chunks_rebuilt += len(stripe_indices)
        reports.append(report)
        stripes_per_phase.append(len(stripe_indices))
    outcome = MultiDiskOutcome(
        algorithm=algorithm.name,
        cooperative=False,
        failed_disks=failed,
        total_time=total_time,
        chunks_read=chunks_read,
        chunks_rebuilt=chunks_rebuilt,
        reports=reports,
        stripes_per_phase=stripes_per_phase,
    )
    _record_multi_metrics(outcome)
    return outcome


def cooperative_multi_disk_repair(
    server: HighDensityStorageServer,
    algorithm_factory: Callable[[], RepairAlgorithm],
    failed_disks: Sequence[int],
    select: str = "first",
    probe_noise: float = 0.02,
    order: str = "default",
) -> MultiDiskOutcome:
    """Union the stripe sets, dedupe, repair every affected stripe once.

    Each stripe's single k-survivor read rebuilds *all* of its lost chunks
    (multi-target partial decoding), eliminating the naive scheme's
    repeated reads and decodes.

    ``order="vulnerability"`` admits the stripes with the most lost chunks
    first (they are one or two failures from data loss), shrinking
    ``time_to_safety`` at a possible small cost in total time — an
    extension beyond the paper's FIFO ordering.

    The timeline is fault-free, as in the paper's Exp 5; a disk that dies
    mid-repair is the data path's business
    (:func:`~repro.core.recovery.recover_disks` with ``faults=``).
    """
    failed = _check_failed(server, failed_disks)
    algorithm = algorithm_factory()
    prober = ActiveProber(server, noise=probe_noise)

    stripe_indices = server.stripes_needing_repair(failed)
    if not stripe_indices:
        raise StorageError(f"disks {failed} hold no stripes; nothing to repair")
    tracer = current_tracer()
    report = _run_phase(
        server, algorithm, stripe_indices, select, prober,
        order=order, failed=failed,
    )
    if tracer.enabled:
        tracer.complete(
            "phase", f"cooperative repair of disks {failed}", 0.0,
            report.total_time, track="phases", stripes=len(stripe_indices),
        )

    finish_times = report.job_finish_times
    lost_per_stripe = {
        si: len(server.layout[si].lost_shards(failed)) for si in stripe_indices
    }
    time_to_safety: Optional[float] = None
    if finish_times:
        max_lost = max(lost_per_stripe[si] for si in finish_times)
        time_to_safety = max(
            t for si, t in finish_times.items()
            if lost_per_stripe[si] == max_lost
        )
    outcome = MultiDiskOutcome(
        algorithm=algorithm.name,
        cooperative=True,
        failed_disks=failed,
        total_time=report.total_time,
        chunks_read=report.chunk_count,
        chunks_rebuilt=sum(lost_per_stripe[si] for si in finish_times),
        reports=[report],
        stripes_per_phase=[len(stripe_indices)],
        time_to_safety=time_to_safety,
    )
    _record_multi_metrics(outcome)
    return outcome


def _record_multi_metrics(outcome: MultiDiskOutcome) -> None:
    """Feed the metrics registry after a multi-disk recovery."""
    registry = current_registry()
    labels = {
        "algorithm": outcome.algorithm,
        "mode": "cooperative" if outcome.cooperative else "naive",
    }
    registry.counter(
        "hdpsr_multi_disk_repairs_total", "Multi-disk recoveries"
    ).labels(**labels).inc()
    registry.counter(
        "hdpsr_multi_disk_chunks_read_total",
        "Surviving chunks read during multi-disk recoveries",
    ).labels(**labels).inc(outcome.chunks_read)
    registry.histogram(
        "hdpsr_multi_disk_repair_seconds", "Simulated multi-disk repair time"
    ).labels(**labels).observe(outcome.total_time)
