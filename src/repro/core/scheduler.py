"""Plan execution and whole-disk repair orchestration.

:func:`execute_plan` turns a :class:`~repro.core.plans.RepairPlan` into a
simulated timeline under one of two memory models:

* ``"slot"`` (default) — exact chunk-slot accounting on the event kernel:
  a round holds its chunks' slots for its duration, multi-round stripes
  keep accumulator slots, and the admission cap defaults to the plan's
  ``P_r`` (clamped to the deadlock-free maximum). This is the ground-truth
  executor all headline benchmarks share, so FSR and the three HD-PSR
  schemes compete under identical memory semantics.

* ``"interval"`` — the paper's §4.2.1 Step-2 model: ``P_r`` fixed-width
  memory intervals with FIFO stripe admission. Used by the model-fidelity
  ablation and by closed-form analyses.

:func:`repair_single_disk` runs the full single-disk recovery story against
a :class:`~repro.hdss.server.HighDensityStorageServer`: probe (active
schemes), build the plan from *estimated* times, execute against *oracle*
times, and report the paper's metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import RepairAlgorithm, RepairContext
from repro.core.plans import RepairPlan, plan_to_jobs
from repro.core.repair_job import PlannedRepair, plan_repair
from repro.errors import ConfigurationError, StorageError
from repro.hdss.prober import ActiveProber
from repro.hdss.server import HighDensityStorageServer
from repro.obs.context import current_registry, current_tracer
from repro.obs.profiling import profile
from repro.sim.metrics import TransferReport
from repro.sim.transfer import simulate_interval_schedule, simulate_slot_schedule


@dataclass
class ExecutionOptions:
    """Knobs of the plan executor."""

    #: ``"slot"`` (exact, default) or ``"interval"`` (paper's model).
    model: str = "slot"
    #: Charge partial-sum accumulator slots against the memory capacity
    #: (ablation; the paper's accounting budgets transfer buffers only).
    charge_accumulators: bool = False
    #: Model each source disk as serving one request at a time (slot model
    #: only); False keeps the paper's L-matrix abstraction where a disk
    #: can feed any number of concurrent transfers at full speed.
    disk_contention: bool = False

    def __post_init__(self) -> None:
        if self.model not in ("slot", "interval"):
            raise ConfigurationError(f"unknown execution model {self.model!r}")


def execute_plan(
    plan: RepairPlan,
    L: np.ndarray,
    c: int,
    stripe_indices: Optional[Sequence[int]] = None,
    survivor_ids: Optional[Sequence[Sequence[int]]] = None,
    disk_ids: Optional[np.ndarray] = None,
    options: Optional[ExecutionOptions] = None,
) -> TransferReport:
    """Execute a plan against oracle transfer times ``L``.

    ``L`` must be the *actual* transfer-time matrix: plans built from noisy
    probe estimates still execute at real speeds, which is how estimation
    error costs an active scheme real time.
    """
    options = options or ExecutionOptions()
    tracer = current_tracer()
    jobs = plan_to_jobs(
        plan, L, stripe_indices, survivor_ids, disk_ids,
        charge_accumulators=options.charge_accumulators,
    )
    if options.model == "interval":
        num_intervals = plan.pr
        if num_intervals is None:
            # Plans without a declared P_r (HD-PSR-PA): intervals must be
            # wide enough for the largest per-stripe footprint.
            num_intervals = max(1, c // max(j.max_round_size() + j.accumulator_slots for j in jobs))
        report = simulate_interval_schedule(jobs, num_intervals, tracer=tracer)
    else:
        report = simulate_slot_schedule(
            jobs,
            capacity=c,
            max_concurrent=plan.pr,
            disk_contention=options.disk_contention,
            tracer=tracer,
        )
    _record_execution_metrics(plan, report, options.model)
    return report


def _record_execution_metrics(plan: RepairPlan, report: TransferReport,
                              model: str) -> None:
    """Feed the process metrics registry after one plan execution."""
    registry = current_registry()
    labels = {"algorithm": plan.algorithm, "model": model}
    registry.counter(
        "hdpsr_plan_executions_total", "Repair plans executed"
    ).labels(**labels).inc()
    registry.counter(
        "hdpsr_stripes_scheduled_total", "Stripes scheduled across executions"
    ).labels(**labels).inc(plan.num_stripes)
    registry.counter(
        "hdpsr_rounds_scheduled_total", "Repair rounds scheduled"
    ).labels(**labels).inc(plan.total_rounds())
    registry.counter(
        "hdpsr_chunks_transferred_total", "Surviving chunks moved into memory"
    ).labels(**labels).inc(report.chunk_count)
    registry.histogram(
        "hdpsr_repair_sim_seconds", "Simulated makespan per execution"
    ).labels(**labels).observe(report.total_time)


@dataclass
class RepairOutcome:
    """Everything a single recovery produced."""

    algorithm: str
    plan: RepairPlan
    report: TransferReport
    #: Stripe indices repaired (row order of the L matrix used).
    stripe_indices: List[int]
    #: Survivor shard ids per stripe (column order of L).
    survivor_ids: List[List[int]]
    #: The oracle transfer-time matrix execution used.
    L: np.ndarray = field(repr=False, default=None)
    #: Probe traffic issued by active schemes, bytes.
    probe_bytes: int = 0

    @property
    def transfer_time(self) -> float:
        """Simulated repair (transfer) time."""
        return self.report.total_time

    @property
    def selection_seconds(self) -> float:
        """Wall-clock the algorithm spent choosing P_a."""
        return self.plan.selection_seconds

    @property
    def acwt(self) -> float:
        return self.report.acwt

    @property
    def chunks_read(self) -> int:
        return self.report.chunk_count

    def summary(self) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm,
            "transfer_time": self.transfer_time,
            "acwt": self.acwt,
            "chunks_read": float(self.chunks_read),
            "selection_seconds": self.selection_seconds,
            "stripes": float(len(self.stripe_indices)),
        }


def simulate(
    planned: PlannedRepair,
    server: HighDensityStorageServer,
    options: Optional[ExecutionOptions] = None,
) -> RepairOutcome:
    """Execute a planned repair on the simulated timeline, at oracle speeds."""
    report = execute_plan(
        planned.plan,
        planned.L,
        server.config.memory_chunks,
        stripe_indices=planned.stripe_indices,
        survivor_ids=planned.survivor_ids,
        disk_ids=planned.disk_ids,
        options=options,
    )
    return RepairOutcome(
        algorithm=planned.plan.algorithm,
        plan=planned.plan,
        report=report,
        stripe_indices=planned.stripe_indices,
        survivor_ids=planned.survivor_ids,
        L=planned.L,
        probe_bytes=planned.probe_bytes,
    )


def repair_single_disk(
    server: HighDensityStorageServer,
    algorithm: RepairAlgorithm,
    failed_disk: int,
    options: Optional[ExecutionOptions] = None,
    select: str = "first",
    context: Optional[RepairContext] = None,
    probe_noise: float = 0.02,
) -> RepairOutcome:
    """Run one single-disk recovery end to end (timing model).

    The disk must already be failed (use
    :meth:`~repro.hdss.server.HighDensityStorageServer.fail_disk`).

    Active schemes (``requires_probing``) build their plan from
    :class:`~repro.hdss.prober.ActiveProber` estimates; FSR and HD-PSR-PA
    see no speed information up front. Execution always uses the oracle
    matrix.
    """
    if not server.disk(failed_disk).is_failed:
        raise StorageError(
            f"disk {failed_disk} is healthy; fail it explicitly before repairing"
        )
    failed = server.failed_disks()
    stripe_indices = server.stripes_needing_repair(failed)
    if not stripe_indices:
        raise StorageError(f"disk {failed_disk} holds no stripes; nothing to repair")
    with profile(f"plan/{algorithm.name}", stripes=len(stripe_indices)):
        planned = plan_repair(
            server, algorithm, failed, stripes=stripe_indices, select=select,
            prober=ActiveProber(server, noise=probe_noise), context=context,
        )
    plan = planned.plan
    tracer = current_tracer()
    if tracer.enabled:
        tracer.instant(
            "plan", f"plan built ({algorithm.name})",
            pa=plan.pa, pr=plan.pr, stripes=plan.num_stripes,
            rounds=plan.total_rounds(),
        )
    registry = current_registry()
    registry.histogram(
        "hdpsr_selection_seconds", "Wall-clock spent choosing P_a",
        buckets=(1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0),
    ).labels(algorithm=algorithm.name).observe(plan.selection_seconds)
    if planned.probe_bytes:
        registry.counter(
            "hdpsr_probe_bytes_total", "Bytes issued by active probing"
        ).labels(algorithm=algorithm.name).inc(planned.probe_bytes)
    return simulate(planned, server, options)
