"""Executors that turn repair schedules into timelines.

A *schedule* is a list of :class:`StripeJob`; each job is an ordered list of
repair rounds, each round an ordered list of :class:`ChunkTransfer` that move
in parallel. Two executors produce :class:`~repro.sim.metrics.TransferReport`:

* :func:`simulate_interval_schedule` — the paper's model (§4.2.1 Step 2):
  memory is partitioned into ``P_r`` intervals; each interval repairs one
  stripe at a time, pulling the next job from a FIFO queue when it finishes.
  Deterministic, closed-form, fast (used inside benchmark sweeps).

* :func:`simulate_slot_schedule` — exact chunk-slot semantics on the event
  kernel: a round holds ``len(round)`` of ``c`` slots for its duration,
  optionally plus persistent accumulator slots; admission control caps
  concurrent stripes. Used as ground truth for the model-fidelity ablation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.errors import PlanError, SimulationError
from repro.sim.engine import Engine, Event
from repro.sim.metrics import ChunkRecord, TransferReport, build_report


@dataclass(frozen=True)
class ChunkTransfer:
    """One chunk to move from a disk into memory.

    Attributes:
        key: caller-defined identity (usually ``(stripe_index, shard_index)``).
        duration: transfer time in simulated seconds (> 0 unless instant).
        disk: source disk id (informational).
    """

    key: Any
    duration: float
    disk: Optional[int] = None

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise PlanError(f"chunk {self.key!r} has negative duration {self.duration}")


#: A repair round: chunks transferred in parallel.
RoundSpec = Sequence[ChunkTransfer]


@dataclass
class StripeJob:
    """One stripe's repair: an ordered list of rounds.

    ``accumulator_slots`` models PSR's partial-sum chunks: slots claimed
    with the first round and held until the job finishes (zero for
    single-round FSR-style jobs, where decode happens in place).
    """

    job_id: Any
    rounds: List[List[ChunkTransfer]] = field(default_factory=list)
    accumulator_slots: int = 0

    def validate(self) -> None:
        if not self.rounds:
            raise PlanError(f"job {self.job_id!r} has no rounds")
        if self.accumulator_slots < 0:
            raise PlanError(f"job {self.job_id!r} has negative accumulator_slots")
        seen = set()
        for rnd in self.rounds:
            if not rnd:
                raise PlanError(f"job {self.job_id!r} contains an empty round")
            for chunk in rnd:
                if chunk.key in seen:
                    raise PlanError(f"job {self.job_id!r} reads chunk {chunk.key!r} twice")
                seen.add(chunk.key)

    @property
    def chunk_count(self) -> int:
        return sum(len(r) for r in self.rounds)

    def max_round_size(self) -> int:
        return max(len(r) for r in self.rounds)


# --------------------------------------------------------------------------
# Interval model (paper §4.2.1 Step 2)
# --------------------------------------------------------------------------


def simulate_interval_schedule(
    jobs: Sequence[StripeJob],
    num_intervals: int,
    tracer=None,
) -> TransferReport:
    """Execute jobs on ``P_r`` memory intervals, FIFO job admission.

    Each interval repairs one stripe at a time; a stripe's round takes the
    maximum of its chunk durations. Jobs are admitted in list order to
    whichever interval frees first — exactly the paper's "the interval
    selects the next stripe from the waiting queue" procedure.

    The memory-utilisation figure assumes each interval is as wide as the
    job's current round (chunks occupy slots only while their round runs).

    ``tracer`` (optional): a :class:`repro.obs.tracer.Tracer`; when
    enabled, each interval becomes a trace track carrying its stripes'
    ``stripe``/``round``/``read`` spans.
    """
    if num_intervals <= 0:
        raise PlanError(f"num_intervals must be positive, got {num_intervals}")
    for job in jobs:
        job.validate()
    trace = tracer is not None and tracer.enabled

    # Min-heap of (free_time, interval_id) — FIFO jobs go to earliest-free.
    intervals = [(0.0, i) for i in range(num_intervals)]
    heapq.heapify(intervals)

    records: List[ChunkRecord] = []
    rounds_per_job: Dict[Any, int] = {}
    finish_times: Dict[Any, float] = {}
    busy_slot_area = 0.0

    for job in jobs:
        free_at, interval_id = heapq.heappop(intervals)
        t = free_at
        track = f"interval-{interval_id}"
        for round_index, rnd in enumerate(job.rounds):
            round_time = max(chunk.duration for chunk in rnd)
            round_end = t + round_time
            for chunk in rnd:
                dur = chunk.duration
                records.append(
                    ChunkRecord(
                        key=chunk.key,
                        job_id=job.job_id,
                        round_index=round_index,
                        disk=chunk.disk,
                        start=t,
                        end=t + dur,
                        round_end=round_end,
                    )
                )
                busy_slot_area += dur
                if trace:
                    tracer.complete(
                        "read", f"chunk {chunk.key}", t, dur,
                        track=track, disk=chunk.disk, stripe=job.job_id,
                        round=round_index,
                    )
            if trace:
                tracer.complete(
                    "round", f"stripe {job.job_id} round {round_index}",
                    t, round_time, track=track,
                    stripe=job.job_id, round=round_index, chunks=len(rnd),
                )
            t = round_end
        if trace:
            tracer.complete(
                "stripe", f"stripe {job.job_id}", free_at, t - free_at,
                track=track, stripe=job.job_id, rounds=len(job.rounds),
            )
        rounds_per_job[job.job_id] = len(job.rounds)
        finish_times[job.job_id] = t
        heapq.heappush(intervals, (t, interval_id))

    makespan = max(finish_times.values()) if finish_times else 0.0
    # Capacity for utilisation: the widest concurrent footprint the
    # schedule could legally use — num_intervals * widest round.
    widest = max((j.max_round_size() for j in jobs), default=0)
    capacity = num_intervals * widest
    utilization = busy_slot_area / (capacity * makespan) if capacity and makespan > 0 else None
    return build_report(records, rounds_per_job, finish_times, utilization)


# --------------------------------------------------------------------------
# Slot model (event-kernel ground truth)
# --------------------------------------------------------------------------


def safe_admission_cap(jobs: Sequence[StripeJob], capacity: int) -> int:
    """Largest deadlock-free concurrent-stripe cap for a job set.

    With first-fit granting, a deadlock needs every in-flight stripe to be
    holding only accumulator slots while no pending request fits. Capping
    in-flight stripes at ``m`` guarantees that, in that worst state, at
    least ``capacity - m * max_acc`` slots are free; keeping that at or
    above the largest possible single request (``max_round + max_acc``)
    makes the state impossible.
    """
    if capacity <= 0:
        raise PlanError(f"capacity must be positive, got {capacity}")
    max_acc = max((j.accumulator_slots for j in jobs), default=0)
    max_request = max(
        (j.max_round_size() + j.accumulator_slots for j in jobs), default=1
    )
    if max_acc == 0:
        return max(1, len(jobs))
    return max(1, (capacity - max_request) // max_acc + 1)


def simulate_slot_schedule(
    jobs: Sequence[StripeJob],
    capacity: int,
    max_concurrent: Optional[int] = None,
    disk_contention: bool = False,
    tracer=None,
) -> TransferReport:
    """Execute jobs against a ``capacity``-slot memory on the event kernel.

    Args:
        capacity: memory capacity ``c`` in chunk slots, granted first-fit
            (see :class:`~repro.sim.engine.SlotResource`).
        max_concurrent: admission cap on simultaneously active stripes
            (e.g. ``P_r``). Always clamped to the deadlock-free maximum
            from :func:`safe_admission_cap`; ``None`` means "as many as is
            safe".
        disk_contention: when True, each chunk transfer must additionally
            hold its source disk (chunks with ``disk=None`` skip this) —
            a disk serves one request at a time, so concurrent reads to
            the same spindle queue (FIFO). Matches a gate of width 1
            (``per_disk_reads=1``) over
            :class:`~repro.service.chaos_rig.PacedStore`; without it,
            disks have infinite internal parallelism (the paper's
            L-matrix abstraction).

        tracer: optional :class:`repro.obs.tracer.Tracer`; when enabled,
            every stripe becomes a trace track with ``stripe``/``round``/
            ``read`` spans plus memory-wait spans, and the slot resources
            emit acquire/release instants.

    Per-job ``accumulator_slots`` are claimed with the first round and
    held until the job ends (PSR's partial-sum residency).

    Raises:
        SimulationError: if the schedule deadlocks (requests pending when
            the event heap drains) — cannot happen under first-fit
            granting and the safe admission cap.
    """
    if capacity <= 0:
        raise PlanError(f"capacity must be positive, got {capacity}")
    for job in jobs:
        job.validate()
        need = job.max_round_size() + job.accumulator_slots
        if need > capacity:
            raise PlanError(
                f"job {job.job_id!r} needs {need} slots (round + accumulators) "
                f"but capacity is {capacity}"
            )
    cap = safe_admission_cap(jobs, capacity)
    if max_concurrent is not None:
        cap = max(1, min(max_concurrent, cap))

    trace = tracer is not None and tracer.enabled
    engine = Engine(tracer=tracer if trace else None)
    memory = engine.slot_resource(capacity, name="memory")
    admission = engine.slot_resource(cap, name="admission")

    records: List[ChunkRecord] = []
    rounds_per_job: Dict[Any, int] = {}
    finish_times: Dict[Any, float] = {}
    disk_resources: Dict[Any, Any] = {}

    def _disk_resource(disk: Any):
        res = disk_resources.get(disk)
        if res is None:
            res = engine.slot_resource(1, name=f"disk-{disk}")
            disk_resources[disk] = res
        return res

    def chunk_process(chunk: ChunkTransfer) -> Generator[Event, Any, float]:
        """One contended transfer; returns its completion time."""
        res = _disk_resource(chunk.disk)
        yield res.request(1)
        yield engine.timeout(chunk.duration)
        res.release(1)
        return engine.now

    def job_process(job: StripeJob) -> Generator[Event, Any, None]:
        yield admission.request(1)
        admitted = engine.now
        track = f"stripe-{job.job_id}"
        held_acc = 0
        for round_index, rnd in enumerate(job.rounds):
            # The first round also claims the persistent accumulator slots.
            extra = job.accumulator_slots if round_index == 0 else 0
            requested = engine.now
            yield memory.request(len(rnd) + extra)
            held_acc += extra
            start = engine.now
            if trace and start > requested:
                tracer.complete(
                    "wait", "memory-wait", requested, start - requested,
                    track=track, stripe=job.job_id, slots=len(rnd) + extra,
                )
            if disk_contention:
                procs = [
                    engine.process(chunk_process(c))
                    if c.disk is not None
                    else engine.timeout(c.duration, None)
                    for c in rnd
                ]
                results = yield engine.all_of(procs)
                ends = [
                    r if r is not None else start + c.duration
                    for r, c in zip(results, rnd)
                ]
            else:
                yield engine.all_of([engine.timeout(c.duration) for c in rnd])
                ends = [start + c.duration for c in rnd]
            round_end = engine.now
            for chunk, end in zip(rnd, ends):
                records.append(
                    ChunkRecord(
                        key=chunk.key,
                        job_id=job.job_id,
                        round_index=round_index,
                        disk=chunk.disk,
                        start=start,
                        end=end,
                        round_end=round_end,
                    )
                )
                if trace:
                    tracer.complete(
                        "read", f"chunk {chunk.key}", start, end - start,
                        track=track, disk=chunk.disk, stripe=job.job_id,
                        round=round_index,
                    )
            if trace:
                tracer.complete(
                    "round", f"stripe {job.job_id} round {round_index}",
                    start, round_end - start, track=track,
                    stripe=job.job_id, round=round_index, chunks=len(rnd),
                )
            memory.release(len(rnd))
        if held_acc:
            memory.release(held_acc)
        rounds_per_job[job.job_id] = len(job.rounds)
        finish_times[job.job_id] = engine.now
        if trace:
            tracer.complete(
                "stripe", f"stripe {job.job_id}", admitted,
                engine.now - admitted, track=track,
                stripe=job.job_id, rounds=len(job.rounds),
            )
        admission.release(1)

    processes = [engine.process(job_process(job)) for job in jobs]
    engine.run()

    unfinished = [j.job_id for j, p in zip(jobs, processes) if not p.triggered]
    if unfinished:
        raise SimulationError(
            f"schedule deadlocked; unfinished jobs: {unfinished[:5]}"
            f"{'...' if len(unfinished) > 5 else ''}"
        )
    utilization = memory.utilization(until=engine.now) if engine.now > 0 else None
    return build_report(records, rounds_per_job, finish_times, utilization)
