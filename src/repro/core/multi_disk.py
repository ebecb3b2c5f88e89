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

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import RepairAlgorithm
from repro.core.repair_job import plan_repair
from repro.core.scheduler import ExecutionOptions, simulate
from repro.errors import StorageError
from repro.faults.injector import SimFaultModel
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
    #: Stripes whose jobs were aborted by a mid-repair disk failure and
    #: then completed in a later re-plan phase (cooperative + faults only).
    replanned_stripes: List[int] = field(default_factory=list)
    #: Stripes abandoned as unrecoverable (fewer than k survivors left).
    lost_stripes: List[int] = field(default_factory=list)
    #: Re-plan phases executed after mid-repair failures.
    replan_phases: int = 0

    @property
    def total_acwt(self) -> float:
        waits = [w for rep in self.reports for w in rep.waits()]
        return float(np.mean(waits)) if waits else 0.0

    def summary(self) -> Dict[str, float]:
        out = {
            "algorithm": self.algorithm,
            "cooperative": self.cooperative,
            "failed_disks": float(len(self.failed_disks)),
            "total_time": self.total_time,
            "chunks_read": float(self.chunks_read),
            "chunks_rebuilt": float(self.chunks_rebuilt),
        }
        if self.replan_phases:
            out["replan_phases"] = float(self.replan_phases)
            out["replanned_stripes"] = float(len(self.replanned_stripes))
        if self.lost_stripes:
            out["lost_stripes"] = float(len(self.lost_stripes))
        return out


def _run_phase(
    server: HighDensityStorageServer,
    algorithm: RepairAlgorithm,
    stripe_indices: List[int],
    select: str,
    options: Optional[ExecutionOptions],
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
    return simulate(planned, server, options).report


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
    options: Optional[ExecutionOptions] = None,
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
                server, algorithm, list(stripe_indices), select, options, prober
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
    options: Optional[ExecutionOptions] = None,
    select: str = "first",
    probe_noise: float = 0.02,
    order: str = "default",
    journal: "Optional[object]" = None,
) -> MultiDiskOutcome:
    """Union the stripe sets, dedupe, repair every affected stripe once.

    Each stripe's single k-survivor read rebuilds *all* of its lost chunks
    (multi-target partial decoding), eliminating the naive scheme's
    repeated reads and decodes.

    ``order="vulnerability"`` admits the stripes with the most lost chunks
    first (they are one or two failures from data loss), shrinking
    ``time_to_safety`` at a possible small cost in total time — an
    extension beyond the paper's FIFO ordering.

    When ``options.faults`` carries a
    :class:`~repro.faults.injector.SimFaultModel` and a disk dies
    *mid-repair*, the aborted stripes are re-planned: the dead disk is
    marked failed on the server (so it joins ``failed_disks`` and is
    excluded from survivor selection), a fresh plan covering just the
    aborted stripes runs as an additional phase starting at the abort
    point, and stripes left with fewer than k survivors are recorded in
    ``lost_stripes`` instead of raising. The outcome's ``failed_disks``
    then includes mid-repair casualties, and ``time_to_safety`` is ``None``
    whenever data was actually lost.

    ``journal`` (a :class:`~repro.journal.journal.RepairJournal`) records a
    durable ``phase`` checkpoint at the initial-phase boundary and after
    every re-plan phase — the timing-plane metadata (phase start, stripes
    covered, disks newly failed) an operator needs to audit what a crashed
    multi-disk recovery had already scheduled.
    """
    failed = _check_failed(server, failed_disks)
    algorithm = algorithm_factory()
    prober = ActiveProber(server, noise=probe_noise)

    stripe_indices = server.stripes_needing_repair(failed)
    if not stripe_indices:
        raise StorageError(f"disks {failed} hold no stripes; nothing to repair")
    tracer = current_tracer()
    options = options or ExecutionOptions()
    report = _run_phase(
        server, algorithm, stripe_indices, select, options, prober,
        order=order, failed=failed,
    )
    if tracer.enabled:
        tracer.complete(
            "phase", f"cooperative repair of disks {failed}", 0.0,
            report.total_time, track="phases", stripes=len(stripe_indices),
        )
    if journal is not None:
        journal.phase(
            kind="initial", start=0.0, duration=float(report.total_time),
            stripes=len(stripe_indices), failed_disks=list(failed),
        )

    reports: List[TransferReport] = [report]
    stripes_per_phase: List[int] = [len(stripe_indices)]
    chunks_read = report.chunk_count
    finish_times: Dict[int, float] = dict(report.job_finish_times)
    total_time = report.total_time
    replanned: List[int] = []
    lost: List[int] = []
    replan_phases = 0
    k = server.config.k
    current = report
    # Mid-repair failures: every iteration marks at least one new disk
    # failed, so this terminates within the schedule's disk_fail budget.
    while current.failed_jobs:
        newly = {d for (_, d) in current.failed_jobs.values() if d is not None}
        phase_start = total_time
        # A round aborts on its *earliest* failing disk, so later failures
        # can be absent from failed_jobs; anything scheduled to die before
        # the re-plan phase begins has already happened by then.
        if options.faults is not None:
            for d, at in options.faults.schedule.disk_fail_times().items():
                if at <= phase_start and d < len(server.disks):
                    newly.add(d)
        newly = sorted(d for d in newly if not server.disk(d).is_failed)
        for d in newly:
            server.fail_disk(d)
        if not newly:
            break
        failed = list(dict.fromkeys(failed + newly))
        aborted = sorted(current.failed_jobs)
        recoverable: List[int] = []
        for si in aborted:
            stripe = server.layout[si]
            survivors = len(stripe.disks) - len(stripe.lost_shards(failed))
            if survivors >= k:
                recoverable.append(si)
            else:
                lost.append(si)
                if tracer.enabled:
                    tracer.instant("data-loss", f"stripe {si} unrecoverable",
                                   track="phases", stripe=si)
        if not recoverable:
            break
        replan_phases += 1
        phase_options = options
        if options.faults is not None:
            phase_options = replace(
                options,
                faults=SimFaultModel(options.faults.schedule.shifted(phase_start)),
            )
        with use_tracer(OffsetTracer(tracer, phase_start)):
            rep = _run_phase(
                server, algorithm, recoverable, select, phase_options, prober,
                order=order, failed=failed,
            )
        if tracer.enabled:
            tracer.complete(
                "phase", f"re-plan after disk {newly} failed mid-repair",
                phase_start, rep.total_time, track="phases",
                stripes=len(recoverable),
            )
        if journal is not None:
            journal.phase(
                kind="replan", start=float(phase_start),
                duration=float(rep.total_time), stripes=len(recoverable),
                newly_failed=list(newly), failed_disks=list(failed),
            )
        total_time = phase_start + rep.total_time
        chunks_read += rep.chunk_count
        reports.append(rep)
        stripes_per_phase.append(len(recoverable))
        for si, t in rep.job_finish_times.items():
            finish_times[si] = phase_start + t
            replanned.append(si)
        current = rep

    lost_per_stripe = {
        si: len(server.layout[si].lost_shards(failed)) for si in stripe_indices
    }
    rebuilt = sum(lost_per_stripe[si] for si in finish_times)
    time_to_safety: Optional[float] = None
    if finish_times and not lost:
        max_lost = max(lost_per_stripe[si] for si in finish_times)
        time_to_safety = max(
            t for si, t in finish_times.items()
            if lost_per_stripe[si] == max_lost
        )
    outcome = MultiDiskOutcome(
        algorithm=algorithm.name,
        cooperative=True,
        failed_disks=failed,
        total_time=total_time,
        chunks_read=chunks_read,
        chunks_rebuilt=rebuilt,
        reports=reports,
        stripes_per_phase=stripes_per_phase,
        time_to_safety=time_to_safety,
        replanned_stripes=list(dict.fromkeys(replanned)),
        lost_stripes=sorted(lost),
        replan_phases=replan_phases,
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
    if outcome.replan_phases:
        registry.counter(
            "hdpsr_sim_replan_phases_total",
            "Timing-plane re-plan phases after mid-repair disk failures",
        ).labels(**labels).inc(outcome.replan_phases)
    if outcome.lost_stripes:
        registry.counter(
            "hdpsr_sim_stripes_lost_total",
            "Stripes abandoned as unrecoverable on the timing plane",
        ).labels(**labels).inc(len(outcome.lost_stripes))
