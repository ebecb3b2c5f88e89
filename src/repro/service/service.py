"""The asyncio repair service: concurrent repairs + a foreground front door.

:class:`RepairService` multiplexes many disk repairs over one
:class:`~repro.hdss.server.HighDensityStorageServer` whose chunk store is
(usually) a :class:`~repro.hdss.store.ShardedChunkStore`:

* ``submit_repair(disk)`` plans that disk's repair with the configured
  HD-PSR scheme and runs each stripe's partial decode as an asyncio task —
  a round first takes ``len(round)`` of the server's ``c`` chunk slots
  (:class:`~repro.service.admission.SlotWaiter` over ``server.memory``),
  then its disks' per-disk gate slots
  (:class:`~repro.service.admission.DiskGate`) in ascending disk order, and
  one worker call reads, verifies and folds the whole round — or, over
  a store whose reads overlap (``reads_overlap``), each read gets its own
  call and one more folds them. A decoded stripe appends its
  ``stripe_done`` record and only then puts its rebuilt chunks, awaiting
  both in a worker thread while it still holds its
  ``max_concurrent_stripes`` slot — that slot is the write path's only
  back-pressure, and nothing is queued behind it.
* ``read_chunk(stripe, shard)`` is the client-facing read path. Reads of
  healthy chunks take a foreground-priority slot on the owning disk; reads
  of *lost* chunks become degraded reads that **piggyback on the in-flight
  repair**: every stripe a repair job owns exposes a future resolving to
  its decoded payloads, so a client read of a dying stripe costs zero
  extra survivor reads once the repair has decoded it.

Every repair read is priced, before it is issued, on :attr:`RepairService.clock`
— a :class:`~repro.core.stripe_repair.ReadClock`, the serial logical clock
the sequential :class:`~repro.core.executor.DataPathExecutor` prices on
too. It is the fault clock, not a measure of the daemon's speed: a fault's
``at`` means seconds of priced reads, so a timed fault lands at the same
read in both drivers.

Crash consistency reuses the repair journal unchanged: each job writes
``begin`` / ``stripe_done`` records into its own directory
(``journal_root/disk-NNN``), and ``submit_repair(disk, resume=True)``
replays every finished stripe whose rebuilt chunks are on their spares (or
in the record) without a survivor read and redoes the rest from the plan.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.base import RepairAlgorithm
from repro.core.plans import StripePlan
from repro.core.repair_job import (
    DataPathStats,
    RepairJob,
    certified,
    place,
    plan_repair,
)
from repro.core.stripe_repair import (
    FORCE,
    ReadClock,
    ReadPolicy,
    ShardFault,
    StripeRepair,
    readable_shards,
)
from repro.ec.partial import PartialDecoder
from repro.ec.stripe import ChunkId, Stripe
from repro.errors import (
    ChunkChecksumError,
    ChunkNotFoundError,
    ChunkQuarantinedError,
    CodingError,
    ConfigurationError,
    InsufficientShardsError,
    JournalError,
    LatentSectorError,
    StorageError,
)
from repro.faults.injector import FaultInjector
from repro.faults.report import LOST, DataLossReport
from repro.faults.spec import FaultSchedule
from repro.hdss.server import HighDensityStorageServer, ScrubReport
from repro.journal.journal import RepairJournal, load_state
from repro.obs.context import current_registry, current_tracer
from repro.service.admission import DiskGate, SlotWaiter
from repro.service.overload import (
    CLASS_DEGRADED,
    CLASS_READ,
    Deadline,
    OverloadConfig,
    OverloadController,
)

DEGRADED_READS = "hdpsr_service_degraded_reads_total"
FOREGROUND_READS = "hdpsr_service_foreground_reads_total"
REPAIR_STRIPES = "hdpsr_service_repair_stripes_total"
REPAIRS = "hdpsr_service_repairs_total"
#: Counter: chunks quarantined after a failed verify, by detection source.
CORRUPT_FOUND = "hdpsr_service_corrupt_chunks_total"
#: Counter: quarantined chunks replaced by a verified read-repair.
CORRUPT_REPAIRED = "hdpsr_service_corrupt_repaired_total"
#: P² summary: seconds from corruption seeding to quarantine (only
#: observable when the seeding side stamped the chunk, e.g. chaos runs).
DETECTION_LATENCY = "hdpsr_scrub_detection_latency_seconds"
#: P² summary of wall-clock front-door read latency, labelled by path.
READ_LATENCY = "hdpsr_service_read_latency_seconds"

#: Quantiles tracked for foreground latency (the SLO tail).
READ_LATENCY_QUANTILES = (0.5, 0.9, 0.99, 0.999)

#: One survivor read as a worker call saw it: ``(shard, disk, payload or
#: the store's unreadable error, started, seconds)``.
Gotten = Tuple[int, int, object, float, float]


def _read_and_fold(
    store, si: int, reads: Sequence[Tuple[int, int]],
    decoder: Optional[PartialDecoder], gotten: Sequence[Gotten] = (),
) -> Tuple[List[Gotten], Optional[Tuple[float, float]]]:
    """A round's worker-thread body: ``get`` each ``(shard, disk)`` of
    ``reads`` in turn — the store verifies every byte — timing each on
    the monotonic clock, then fold everything that arrived (``gotten`` too:
    reads earlier calls made) into ``decoder``, when one is given.

    Returns every read and the fold's ``(started, seconds)`` (None when
    nothing was folded). An unreadable chunk comes back as its error; any
    other error fails the call.
    """
    gotten = list(gotten)
    for shard, disk_id in reads:
        started = time.monotonic()
        try:
            payload = store.get(disk_id, ChunkId(si, shard))
        except (LatentSectorError, ChunkNotFoundError) as exc:
            payload = exc
        gotten.append((shard, disk_id, payload, started, time.monotonic() - started))
    arrived = {
        shard: payload for shard, _, payload, _, _ in gotten
        if isinstance(payload, np.ndarray)
    }
    if decoder is None or not arrived:
        return gotten, None
    started = time.monotonic()
    decoder.feed(arrived)
    return gotten, (started, time.monotonic() - started)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`RepairService`.

    Attributes:
        max_concurrent_stripes: stripes one repair job decodes at once —
            the looser of two caps: survivor chunks in flight are bounded
            by the server's ``c``-slot memory, this bounds the ``t``
            accumulators per stripe on top of it.
        per_disk_reads: concurrent reads allowed per disk (gate width).
        policy: read-hardening knobs applied to repair reads as the read
            clock prices them (timeouts, retries, hedging) — the
            sequential executor's, applied the same way.
        journal_root: directory holding one journal per repaired disk
            (``journal_root/disk-NNN``); ``None`` disables journaling.
        durable_journal: fsync journal commits (tests turn this off).
        overload: brownout-controller knobs
            (:class:`~repro.service.overload.OverloadConfig`); ``None``
            disables adaptive overload control entirely (library default —
            ``hdpsr serve`` enables it unless ``--no-overload-control``).
    """

    max_concurrent_stripes: int = 4
    per_disk_reads: int = 2
    policy: Optional[ReadPolicy] = None
    journal_root: "str | Path | None" = None
    durable_journal: bool = True
    overload: Optional[OverloadConfig] = None

    def __post_init__(self) -> None:
        if self.max_concurrent_stripes < 1:
            raise ConfigurationError(
                f"max_concurrent_stripes must be >= 1, got {self.max_concurrent_stripes}"
            )


@dataclass
class ServiceRepairResult:
    """Terminal outcome of one ``submit_repair`` job."""

    disk: int
    algorithm: str
    stripes: int
    stripes_repaired: int
    stripes_lost: int
    chunks_rebuilt: int
    resumed_stripes: int
    remapped: int
    wall_seconds: float
    loss: DataLossReport
    #: What :meth:`~repro.core.repair_job.RepairJob.certify` proved in hand
    #: about the kept stripes (not a full parity scrub).
    scrub: ScrubReport

    @property
    def certified(self) -> bool:
        """See :func:`repro.core.repair_job.certified`."""
        return certified(self.loss, self.scrub)

    @property
    def exit_code(self) -> int:
        return self.loss.exit_code

    def summary(self) -> dict:
        return {
            "disk": self.disk,
            "algorithm": self.algorithm,
            "stripes": self.stripes,
            "stripes_repaired": self.stripes_repaired,
            "stripes_lost": self.stripes_lost,
            "chunks_rebuilt": self.chunks_rebuilt,
            "resumed_stripes": self.resumed_stripes,
            "remapped": self.remapped,
            "wall_seconds": self.wall_seconds,
            "certified": self.certified,
            "exit_code": self.exit_code,
        }


@dataclass
class RepairTicket:
    """Handle to one in-flight repair job."""

    job_id: int
    disk: int
    task: "asyncio.Task[ServiceRepairResult]"

    @property
    def done(self) -> bool:
        return self.task.done()

    async def wait(self) -> ServiceRepairResult:
        return await self.task


class _Job(RepairJob):
    """One :class:`~repro.core.repair_job.RepairJob` plus the supervisor's
    own bookkeeping: which disk, which journal, and the live-telemetry
    fields read by :meth:`RepairService.progress`."""

    disk: int = -1
    journal: Optional[RepairJournal] = None
    job_id: int = -1
    started_wall: float = 0.0
    stripes_done: int = 0
    finished: bool = False

    def progress(self) -> dict:
        """One job's live progress row (JSON-safe, served by ``stats``)."""
        total = len(self.stripe_indices)
        done = self.stripes_done
        stats = self.stats
        elapsed = time.monotonic() - self.started_wall
        if self.finished:
            eta = 0.0
        elif done:
            eta = elapsed / done * (total - done)
        else:
            eta = None
        return {
            "job_id": self.job_id,
            "disk": self.disk,
            "algorithm": self.plan.algorithm,
            "stripes_total": total,
            "stripes_done": done,
            "stripes_lost": stats.stripes_lost,
            "chunks_rebuilt": stats.chunks_rebuilt,
            "resumed_stripes": stats.resumed_stripes,
            "replans": stats.replans,
            "fresh_restarts": stats.fresh_restarts,
            "checksum_failures": stats.checksum_failures,
            "elapsed_seconds": elapsed,
            "eta_seconds": eta,
            "done": self.finished,
        }


class RepairService:
    """Supervises concurrent repairs and serves reads while they run.

    Args:
        server: the storage server (ideally store-sharded) to operate.
        algorithm: repair scheme used to plan every submitted repair.
        config: service knobs; defaults are test-friendly.
        faults: optional fault schedule, fired on :attr:`clock` exactly as
            on the sequential path (one injector per service — the
            schedule is server-wide, not per-job).
        fence: optional ownership fence, called with the repaired disk id
            immediately before every durable effect (journal commits,
            chunk write-backs, spare remapping). Cluster daemons install
            :meth:`repro.service.cluster.ClusterNode.check_fence` here so
            a stale lease holder fails with
            :class:`~repro.errors.FencedError` *at the commit point*
            instead of clobbering the new owner's work.
    """

    def __init__(
        self,
        server: HighDensityStorageServer,
        algorithm: RepairAlgorithm,
        config: Optional[ServiceConfig] = None,
        faults: Optional[FaultSchedule] = None,
        fence=None,
    ) -> None:
        self.server = server
        self.algorithm = algorithm
        self.config = config or ServiceConfig()
        self.faults = faults
        self.fence = fence
        self.gate = DiskGate(self.config.per_disk_reads)
        #: Brownout controller (None = overload control disabled).
        self.overload: Optional[OverloadController] = (
            OverloadController(self.config.overload)
            if self.config.overload is not None
            else None
        )
        self.gate.controller = self.overload
        self.memory = SlotWaiter(server.memory)  # every job's rounds wait here
        #: The serial logical clock every repair read is priced on, shared
        #: by all jobs; it holds the one fault injector (the schedule is
        #: server-wide), bound by the first job that needs it.
        self.clock = ReadClock(server, self.config.policy)
        #: stripe index -> future of {target_shard: payload} (or None=lost).
        self._repair_futures: Dict[int, "asyncio.Future"] = {}
        #: Stripes owned by an active job (overlapping repairs skip them).
        self._claimed: set = set()
        self._tickets: Dict[int, RepairTicket] = {}
        #: job_id -> supervisor job state, kept after completion for `top`.
        self._jobs: Dict[int, _Job] = {}
        self._next_job = 0
        #: Stripe decodes in flight right now, across all jobs.
        self._inflight_stripes = 0
        #: Quarantined chunks: (disk_id, ChunkId) -> wall time of detection.
        #: A quarantined chunk is never served and never used as a decode
        #: survivor until its read-repair lands and re-verifies.
        self.quarantine: Dict[Tuple[int, ChunkId], float] = {}
        #: Corruption tallies (reported by :meth:`snapshot`).
        self.corrupt_found = 0
        self.corrupt_repaired = 0
        #: Seed times of injected corruptions (chaos plane stamps these via
        #: :meth:`note_corruption_seeded` so detection latency is measurable).
        self._corruption_seeded: Dict[Tuple[int, ChunkId], float] = {}
        #: In-flight background read-repairs spawned by quarantine.
        self._chunk_repairs: set = set()

    # ------------------------------------------------------------- lifecycle
    async def close(self) -> None:
        """Wait for the background read-repairs. A repair job's puts are
        awaited by the job itself, so no write is left to flush."""
        if self._chunk_repairs:
            await asyncio.gather(*list(self._chunk_repairs), return_exceptions=True)

    # --------------------------------------------------------------- fencing
    def _check_fence(self, disk_id: int) -> None:
        """Refuse a durable effect unless we still own ``disk_id``'s shard."""
        if self.fence is not None:
            self.fence(disk_id)

    # ------------------------------------------------- quarantine & read-repair
    def is_quarantined(self, disk_id: int, chunk_id: ChunkId) -> bool:
        """Whether a chunk is blocked from being served (failed verify)."""
        return (disk_id, chunk_id) in self.quarantine

    def note_corruption_seeded(
        self, disk_id: int, stripe_index: int, shard_idx: int
    ) -> None:
        """Stamp an injected corruption's seed time (chaos/test plane only)
        so the detection-latency summary has a start point to measure from."""
        key = (disk_id, ChunkId(stripe_index, shard_idx))
        self._corruption_seeded.setdefault(key, time.monotonic())

    def quarantine_chunk(
        self,
        disk_id: int,
        stripe_index: int,
        shard_idx: int,
        source: str = "scrub",
        auto_repair: bool = False,
    ) -> bool:
        """Mark one chunk quarantined after a failed verify.

        Returns True when the chunk was newly quarantined (False for a
        repeat detection). ``source`` labels who caught it (``scrub`` /
        ``foreground`` / ``degraded`` / ``repair``). With ``auto_repair``
        a background single-chunk read-repair task is spawned; the scrub
        plane passes False and awaits :meth:`repair_chunk` itself so its
        cycle accounting stays synchronous.
        """
        cid = ChunkId(stripe_index, shard_idx)
        key = (disk_id, cid)
        if key in self.quarantine:
            return False
        now = time.monotonic()
        self.quarantine[key] = now
        self.corrupt_found += 1
        registry = current_registry()
        registry.counter(
            CORRUPT_FOUND, "chunks quarantined after a failed verify, by source"
        ).labels(source=source).inc()
        seeded = self._corruption_seeded.pop(key, None)
        if seeded is not None:
            registry.summary(
                DETECTION_LATENCY,
                "seconds from corruption seeding to quarantine",
                quantiles=(0.5, 0.9, 0.99),
            ).observe(now - seeded)
        current_tracer().instant(
            "service", f"quarantine s{stripe_index}/{shard_idx}",
            disk=disk_id, stripe=stripe_index, shard=shard_idx, source=source,
        )
        if auto_repair:
            task = asyncio.get_running_loop().create_task(
                self._auto_repair_chunk(stripe_index, shard_idx),
                name=f"chunk-repair-{stripe_index}.{shard_idx}",
            )
            self._chunk_repairs.add(task)
            task.add_done_callback(self._chunk_repairs.discard)
        return True

    async def _auto_repair_chunk(self, stripe_index: int, shard_idx: int) -> None:
        """Background read-repair; failures leave the chunk quarantined
        (blocked, served degraded) rather than crashing the daemon."""
        try:
            await self.repair_chunk(stripe_index, shard_idx)
        except (StorageError, CodingError, ChunkQuarantinedError) as exc:
            current_tracer().instant(
                "service", f"read-repair failed s{stripe_index}/{shard_idx}",
                error=repr(exc),
            )

    async def repair_chunk(self, stripe_index: int, shard_idx: int) -> bool:
        """Synthesize one chunk from k survivors and write it back verified.

        The single-chunk partial-stripe repair behind quarantine: decode
        the target from k readable, un-quarantined survivors (background
        gate slots — a read-repair never takes a slot a foreground read is
        waiting on), ``put`` the result (which writes a fresh digest
        sidecar atomically), re-verify the bytes on disk, then lift the
        quarantine. Byte identity is structural: the decode reproduces
        exactly the shard the encoder originally wrote.

        Raises :class:`InsufficientShardsError` when fewer than k clean
        survivors remain and :class:`ChunkQuarantinedError` when a
        survivor itself fails verification mid-repair (it gets
        quarantined too; a retry will plan around it).
        """
        server = self.server
        stripe = server.layout[stripe_index]
        if not 0 <= shard_idx < stripe.n:
            raise ConfigurationError(f"stripe has no shard {shard_idx}")
        disk_id = stripe.disks[shard_idx]
        cid = ChunkId(stripe_index, shard_idx)
        data = await self._decode_chunk(
            stripe_index, stripe, shard_idx,
            foreground=False, deadline=None, source="repair", auto_repair=False,
        )
        self._check_fence(disk_id)
        await asyncio.to_thread(server.store.put, disk_id, cid, data)
        await asyncio.to_thread(server.store.verify_chunk, disk_id, cid)
        self.quarantine.pop((disk_id, cid), None)
        self.corrupt_repaired += 1
        current_registry().counter(
            CORRUPT_REPAIRED, "quarantined chunks replaced by verified read-repair"
        ).inc()
        current_tracer().instant(
            "service", f"read-repair s{stripe_index}/{shard_idx}",
            disk=disk_id, stripe=stripe_index, shard=shard_idx,
        )
        return True

    async def _decode_chunk(
        self,
        stripe_index: int,
        stripe: Stripe,
        shard_idx: int,
        *,
        foreground: bool,
        deadline: Optional[Deadline],
        source: str,
        auto_repair: bool,
    ) -> np.ndarray:
        """Standalone k-survivor decode of one chunk (no repair to join).

        Serves both a degraded front-door read (foreground slots, bounded
        by ``deadline``) and a read-repair (background slots): one round of
        all ``k`` survivors through :meth:`_read_round`. A survivor that
        fails its sidecar verify mid-decode is quarantined (labelled
        ``source``; ``auto_repair`` spawns its own read-repair) and
        surfaced as a structured, retryable
        :class:`~repro.errors.ChunkQuarantinedError` — the decode's answer
        is thrown away (it would be silently wrong), and no ladder here:
        the retry plans around the quarantined survivor.
        """
        server = self.server
        survivors = readable_shards(
            server, stripe_index, stripe,
            exclude=(shard_idx,), skip=self.is_quarantined,
        )[: stripe.k]
        if len(survivors) < stripe.k:
            raise InsufficientShardsError(
                f"stripe {stripe_index}: {len(survivors)} clean survivors < k; "
                f"cannot decode shard {shard_idx}"
            )
        decoder = PartialDecoder(
            server.code, survivors, [shard_idx], chunk_size=server.config.chunk_size
        )
        _, faults = await self._read_round(
            stripe, stripe_index, survivors, decoder,
            foreground=foreground, deadline=deadline,
            source=source, auto_repair=auto_repair,
        )
        if faults:
            fault = faults[0]
            if isinstance(fault.cause, ChunkChecksumError):
                raise ChunkQuarantinedError(
                    f"survivor shard {fault.shard} of stripe {stripe_index} "
                    f"failed verification during a {source} decode",
                    disk=stripe.disks[fault.shard], stripe=stripe_index,
                    shard=fault.shard,
                )
            raise fault.cause
        return decoder.result(shard_idx)

    # ------------------------------------------------------------ fault glue
    def _ensure_injector(self, skip_crashes: int) -> None:
        if self.faults is None:
            return
        injector = self.clock.injector
        if injector is None:
            self.clock.injector = FaultInjector(
                self.server, self.faults, skip_crashes=skip_crashes
            ).attach()
        else:
            injector.skip_crashes = max(injector.skip_crashes, skip_crashes)

    # ---------------------------------------------------------------- journals
    def _journal_dir(self, disk_id: int) -> Optional[Path]:
        if self.config.journal_root is None:
            return None
        return Path(self.config.journal_root) / f"disk-{disk_id:03d}"

    # ------------------------------------------------------------ submission
    def submit_repair(self, disk_id: int, resume: bool = False) -> RepairTicket:
        """Start repairing ``disk_id`` in the background; returns a ticket.

        With ``resume=True`` the job continues from this disk's journal
        directory (``journal_root/disk-NNN``): the journaled plan is
        reused verbatim, finished stripes replay without a survivor read,
        and stripes that were in flight restart from the plan.
        """
        job_id = self._next_job
        self._next_job += 1
        task = asyncio.get_running_loop().create_task(
            self._run_repair(disk_id, resume, job_id), name=f"repair-{disk_id}"
        )
        ticket = RepairTicket(job_id=job_id, disk=disk_id, task=task)
        self._tickets[job_id] = ticket
        return ticket

    def ticket(self, job_id: int) -> RepairTicket:
        if job_id not in self._tickets:
            raise ConfigurationError(f"no such repair ticket {job_id}")
        return self._tickets[job_id]

    def tickets(self) -> List[RepairTicket]:
        """Every repair submitted so far, in submission order."""
        return list(self._tickets.values())

    def snapshot(self) -> dict:
        """The repair plane's state right now (JSON-safe, side-effect free).

        Jobs stay listed after completion (with ``done: true``) so
        ``hdpsr top`` keeps showing finished repairs' terminal counts;
        jobs whose planning has not finished yet are not listed.
        """
        return {
            "failed": self.server.failed_disks(),
            "jobs": [self._jobs[jid].progress() for jid in sorted(self._jobs)],
            "inflight_stripes": self._inflight_stripes,
            "corruption": {
                "found": self.corrupt_found,
                "repaired": self.corrupt_repaired,
                "quarantined": len(self.quarantine),
            },
        }

    # ---------------------------------------------------------- the job body
    async def _run_repair(
        self, disk_id: int, resume: bool, job_id: int = -1
    ) -> ServiceRepairResult:
        started = time.monotonic()
        server = self.server
        jdir = self._journal_dir(disk_id)
        tracer = current_tracer()
        fingerprint = server.config.fingerprint()

        job: Optional[_Job] = None
        if resume:
            if jdir is None:
                raise JournalError("resume needs a journal_root in ServiceConfig")
            state = await asyncio.to_thread(load_state, jdir)
            job = _Job.resumed(state, fingerprint, jdir)
            self.clock.now = max(self.clock.now, state.clock)
            stripes = job.stripe_indices
        else:
            if not server.disk(disk_id).is_failed:
                raise StorageError(
                    f"disk {disk_id} is healthy; fail it before submitting a repair"
                )
            failed_all = server.failed_disks()
            stripes = [
                si
                for si in server.stripes_needing_repair([disk_id])
                if si not in self._claimed
            ]
            if not stripes:
                raise StorageError(
                    f"disk {disk_id} holds no unclaimed stripes; nothing to repair"
                )
        # Claimed in the step that chose them, before planning yields the
        # loop: an overlapping submit must already see them taken.
        self._claim_stripes(stripes)
        tasks: List[asyncio.Task] = []
        try:
            if job is None:
                # The read clock prices reads unjittered, so the plan does too.
                planned = await asyncio.to_thread(
                    plan_repair, server, self.algorithm, failed_all,
                    stripes=stripes, jittered=False,
                )
                job = _Job(
                    planned.plan, planned.stripe_indices, planned.survivor_ids,
                    failed_all, fingerprint,
                )
            self._ensure_injector(job.crashes_survived)
            if jdir is not None:
                job.journal = RepairJournal(jdir, durable=self.config.durable_journal)
                job.open(job.journal)

            job.disk = disk_id
            job.job_id = job_id
            job.started_wall = started
            self._jobs[job_id] = job

            sem = asyncio.Semaphore(self.config.max_concurrent_stripes)
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(self._stripe_bounded(sem, job, sp, si, shards))
                for sp, si, shards in job.rows()
            ]
            # Every stripe awaits its own puts: once this returns, every
            # rebuilt chunk is on its spare.
            await asyncio.gather(*tasks)
            self._check_fence(job.disk)
            scrub = await asyncio.to_thread(
                job.certify, server, job.commit(server), self.is_quarantined
            )
            stats = job.finish(job.journal, self.clock.injector, self.clock.now)
        except BaseException:
            # SimulatedCrash, cancellation, a failed put or a fence lost at
            # the commit point: stop cleanly and keep the journal — a
            # resumed service (this one or the new owner) picks up after
            # the last record.
            for t in tasks:
                t.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            if job is not None and job.journal is not None:
                job.journal.close()
            raise
        finally:
            if job is not None:
                job.finished = True
            self._release_stripes(stripes)
        result = ServiceRepairResult(
            disk=disk_id,
            algorithm=job.plan.algorithm,
            stripes=len(job.stripe_indices),
            stripes_repaired=stats.stripes_repaired,
            stripes_lost=stats.stripes_lost,
            chunks_rebuilt=stats.chunks_rebuilt,
            resumed_stripes=stats.resumed_stripes,
            remapped=job.remapped,
            wall_seconds=time.monotonic() - started,
            loss=stats.loss,
            scrub=scrub,
        )
        current_registry().counter(
            REPAIRS, "repair jobs finished"
        ).labels(outcome="lost" if stats.stripes_lost else "recovered").inc()
        tracer.instant(
            "service", f"repair disk {disk_id} done",
            stripes=result.stripes, lost=result.stripes_lost,
        )
        return result

    def _claim_stripes(self, stripes: List[int]) -> None:
        """Own ``stripes``: overlapping repairs skip them, and degraded
        reads of them wait on their piggyback futures."""
        loop = asyncio.get_running_loop()
        for si in stripes:
            if si not in self._repair_futures:
                self._repair_futures[si] = loop.create_future()
            self._claimed.add(si)

    def _release_stripes(self, stripes: List[int]) -> None:
        for si in stripes:
            fut = self._repair_futures.pop(si, None)
            if fut is not None and not fut.done():
                fut.set_result(None)  # readers fall back to standalone decode
            self._claimed.discard(si)

    async def _stripe_bounded(
        self, sem: asyncio.Semaphore, job: _Job, sp: StripePlan,
        si: int, shards: List[int],
    ) -> None:
        async with sem:
            self._inflight_stripes += 1
            try:
                with current_tracer().span(
                    "stripe", f"stripe-{si}", track="service",
                    stripe=si, disk=job.disk, job=job.job_id,
                ):
                    await self._repair_stripe(job, sp, si, shards)
                job.stripes_done += 1
            finally:
                self._inflight_stripes -= 1

    # ----------------------------------------------------------- stripe task
    async def _repair_stripe(
        self, job: _Job, sp: StripePlan, si: int, shards: List[int]
    ) -> None:
        server = self.server
        stripe = server.layout[si]
        targets = job.targets(stripe)
        fut = self._repair_futures.get(si)
        done = job.replayable(si, server.store.contains)

        def resolve(payloads: Optional[Dict[int, np.ndarray]]) -> None:
            # Piggybacking degraded reads get the decoded bytes (None: lost).
            if fut is not None and not fut.done():
                fut.set_result(payloads)

        if done is not None:
            # Re-put what the spare is missing; zero survivor reads.
            self._check_fence(job.disk)
            for spare, cid, payload in job.replay_puts(
                si, done, server.store.contains, server.config.chunk_size
            ):
                await asyncio.to_thread(server.store.put, spare, cid, payload)
            # A record that only names its chunks hands piggybackers {}:
            # they fall back to their own decode.
            resolve(
                {t: p for t, _, p in done.writebacks if p is not None}
                if done.outcome != LOST
                else None
            )
            return

        repair = StripeRepair.fresh(
            server.code, shards, targets, sp, server.config.chunk_size
        )
        seen: Set[int] = set()

        rnd, forced = repair.next_round(), False
        while rnd:
            await self.memory.acquire(len(rnd))
            try:
                if self.overload is not None:
                    # Brownout pacing: repair yields spindle time to the
                    # front door before any client work is refused. Never
                    # skipped — the rebuild still finishes, just slower.
                    pause = max(self.overload.repair_pause() for _ in rnd)
                    if pause > 0.0:
                        await asyncio.sleep(pause)
                fed, faults = await self._read_round(
                    stripe, si, rnd, repair.decoder, stats=job.stats, forced=forced
                )
            finally:
                self.memory.release(len(rnd))
            for shard, data in fed.items():
                job.count_read(seen, shard, data.size)
                server.disk(stripe.disks[shard]).record_read(data.size)
            job.stats.checksum_failures += sum(
                isinstance(f.cause, ChunkChecksumError) for f in faults
            )
            # The first fault is the one handled: a second faulted shard is
            # re-read, and re-faults, on the re-planned rounds.
            if faults and repair.on_fault(
                faults[0],
                readable_shards(server, si, stripe, skip=self.is_quarantined),
            ) == FORCE:
                # No alternative survivor: force the slow read through (if
                # it dies meanwhile, the ladder sees a dead shard next).
                rnd, forced = [faults[0].shard], True
            else:
                rnd, forced = repair.next_round(), False

        repair.fold_into(job.stats)
        outcome = repair.outcome
        written: List[Tuple[int, int, np.ndarray]] = []
        if outcome == LOST:
            resolve(None)
            if job.journal is not None:
                self._check_fence(job.disk)
        else:
            # The accumulators themselves: no worker call.
            results = repair.decoder.results()
            # Resolve the piggyback future *before* persisting: a degraded
            # read only needs the decoded bytes, not their new home.
            resolve(results)
            self._check_fence(job.disk)
            written = [
                (target, spare, results[target])
                for target, spare in place(stripe, targets, server.pick_spare)
            ]
        job.record(si, outcome, written)
        # Record, then put (docs/robustness.md, rule 4): a chunk that lands
        # always has its record, so a crash never leads to an identical
        # re-put; a record whose chunk never landed starts fresh (rule 3).
        if job.journal is not None:
            await asyncio.to_thread(
                job.journal.stripe_done, si, outcome, self.clock.now,
                job.record_writebacks(server.store, written),
            )
        with current_tracer().span(
            "writeback", f"stripe-{si}/put", track="service",
            stripe=si, chunks=len(written),
        ):
            for target, spare, payload in written:
                await asyncio.to_thread(
                    server.store.put, spare, ChunkId(si, target), payload
                )
        current_registry().counter(
            REPAIR_STRIPES, "stripe repairs finished"
        ).labels(outcome=outcome).inc()

    # --------------------------------------------------------- survivor reads
    async def _read_round(
        self,
        stripe: Stripe,
        si: int,
        shards: Sequence[int],
        decoder: PartialDecoder,
        *,
        foreground: bool = False,
        deadline: Optional[Deadline] = None,
        stats: Optional[DataPathStats] = None,
        forced: bool = False,
        source: str = "repair",
        auto_repair: bool = True,
    ) -> Tuple[Dict[int, np.ndarray], List[ShardFault]]:
        """Read one round of survivors and fold what arrives into ``decoder``.

        Takes the round's disk-gate slots in ascending disk order — the
        order every holder of more than one gate uses, so rounds and
        degraded decodes cannot deadlock — and holds them for the reads.
        A repair round (``stats`` given) then prices each read in round
        order on :attr:`clock` (``forced`` as :meth:`ReadClock.price
        <repro.core.stripe_repair.ReadClock.price>` takes it; a
        :class:`ShardFault` it raises skips that read); degraded decodes
        and read-repairs are not priced. One worker call gets, verifies
        and folds the round.
        Over a store whose reads overlap (:attr:`ChunkStore.reads_overlap
        <repro.hdss.store.ChunkStore.reads_overlap>`) each ``get`` has a
        call of its own, and one more call, after the gates, folds.

        Returns the chunks folded in and the round's faults in round order.
        A chunk that failed its sidecar verify is quarantined (labelled
        ``source``; ``auto_repair`` spawns its read-repair). With a tracer
        recording, each arrived read emits its ``read`` span (the ``get``
        alone, never the gate wait) and the fold a ``decode`` span.
        """
        store = self.server.store
        overlap = store.reads_overlap
        faults: Dict[int, ShardFault] = {}
        reads: List[Tuple[int, int]] = []
        async with contextlib.AsyncExitStack() as gates:
            for disk_id in sorted(stripe.disks[s] for s in shards):
                await gates.enter_async_context(self.gate.read(
                    disk_id, foreground=foreground, deadline=deadline
                ))
            for shard in shards:
                try:
                    if stats is not None:
                        self.clock.price(stripe.disks[shard], shard, stats, forced)
                except ShardFault as fault:
                    faults[shard] = fault
                else:
                    reads.append((shard, stripe.disks[shard]))
            if overlap:
                parts = await asyncio.gather(*(
                    asyncio.to_thread(_read_and_fold, store, si, [read], None)
                    for read in reads
                ))
                gotten = [g for part, _ in parts for g in part]
            else:
                gotten, fold = await asyncio.to_thread(
                    _read_and_fold, store, si, reads, decoder
                )
        if overlap:  # the fold needs no disk
            gotten, fold = await asyncio.to_thread(
                _read_and_fold, store, si, (), decoder, gotten
            )
        tracer = current_tracer()
        fed: Dict[int, np.ndarray] = {}
        for shard, disk_id, payload, started, seconds in gotten:
            if not isinstance(payload, np.ndarray):
                if isinstance(payload, ChunkChecksumError):
                    self.quarantine_chunk(
                        disk_id, si, shard, source=source, auto_repair=auto_repair
                    )
                faults[shard] = ShardFault(shard, payload)
                continue
            fed[shard] = payload
            if tracer.enabled:
                tracer.complete(
                    "read", f"survivor:s{si}/{shard}", started, seconds,
                    track="service", domain="wall",
                    stripe=si, shard=shard, disk=disk_id,
                )
        if fold is not None and tracer.enabled:
            tracer.complete(
                "decode", f"stripe-{si}/feed", *fold, track="service",
                domain="wall", stripe=si, chunks=len(fed),
            )
        return fed, [faults[s] for s in shards if s in faults]

    # ------------------------------------------------------------ front door
    async def read_chunk(
        self,
        stripe_index: int,
        shard_idx: int,
        deadline: Optional[Deadline] = None,
    ) -> np.ndarray:
        """Client read of one chunk; degrades (and piggybacks) when lost.

        ``deadline`` (if given) is re-checked at every queue hop — doomed
        reads raise :class:`~repro.errors.DeadlineExceededError` instead
        of consuming a disk slot. When overload control is enabled, the
        controller may also refuse the read outright with
        :class:`~repro.errors.OverloadError` (degraded decodes first,
        healthy reads only past the queue cap).
        """
        server = self.server
        stripe = server.layout[stripe_index]
        if not 0 <= shard_idx < stripe.n:
            raise ConfigurationError(f"stripe has no shard {shard_idx}")
        disk_id = stripe.disks[shard_idx]
        cid = ChunkId(stripe_index, shard_idx)
        if deadline is not None:
            deadline.check("admission")
        registry = current_registry()
        registry.counter(FOREGROUND_READS, "front-door reads served").inc()
        started = time.monotonic()
        if (
            not server.disk(disk_id).is_failed
            and server.store.is_readable(disk_id, cid)
            and not self.is_quarantined(disk_id, cid)
        ):
            if self.overload is not None:
                self.overload.admit(
                    CLASS_READ, queue_depth=self.gate.queue_depth(disk_id)
                )
            fault: Optional[LatentSectorError] = None
            async with self.gate.read(disk_id, foreground=True, deadline=deadline):
                try:
                    data = await asyncio.to_thread(server.store.get, disk_id, cid)
                except LatentSectorError as exc:
                    # Unreadable sector or failed verify: no bytes escaped,
                    # so fall through to the degraded path below.
                    fault = exc
            if fault is None:
                self._observe_read(registry, "healthy", started)
                return data
            if isinstance(fault, ChunkChecksumError):
                # Silent corruption: quarantine and kick off the read-repair.
                self.quarantine_chunk(
                    disk_id, stripe_index, shard_idx,
                    source="foreground", auto_repair=True,
                )

        if self.overload is not None:
            self.overload.admit(CLASS_DEGRADED)
        degraded = registry.counter(
            DEGRADED_READS, "front-door reads of lost chunks"
        )
        tracer = current_tracer()
        fut = self._repair_futures.get(stripe_index)
        if fut is not None:
            with tracer.span(
                "wait", f"piggyback:{stripe_index}", track="service",
                stripe=stripe_index, shard=shard_idx,
            ):
                results = await self._await_piggyback(fut, deadline)
            if results is not None and shard_idx in results:
                degraded.labels(source="piggyback").inc()
                self._observe_read(registry, "piggyback", started)
                return results[shard_idx]
        degraded.labels(source="decode").inc()
        decode = self._decode_chunk(
            stripe_index, stripe, shard_idx,
            foreground=True, deadline=deadline, source="degraded", auto_repair=True,
        )
        with tracer.span(
            "decode", f"degraded:{stripe_index}/{shard_idx}",
            track="service", stripe=stripe_index, shard=shard_idx,
        ):
            data = await decode
        self._observe_read(registry, "decode", started)
        return data

    @staticmethod
    async def _await_piggyback(fut: "asyncio.Future", deadline: Optional[Deadline]):
        """Wait on a repair's decode future, bounded by the deadline.

        Shielded either way: a reader giving up must never cancel the
        repair's shared future.
        """
        if deadline is None:
            return await asyncio.shield(fut)
        try:
            return await asyncio.wait_for(
                asyncio.shield(fut), timeout=deadline.remaining()
            )
        except asyncio.TimeoutError:
            deadline.check("piggyback")
            raise  # not expired after all (clock nudge): surface the timeout

    def _observe_read(self, registry, path: str, started: float) -> None:
        """Record one front-door read's wall latency into the P² summary."""
        registry.summary(
            READ_LATENCY, "front-door read wall latency",
            quantiles=READ_LATENCY_QUANTILES,
        ).labels(path=path).observe(time.monotonic() - started)

    async def read_object(
        self, stripe_index: int, deadline: Optional[Deadline] = None
    ) -> bytes:
        """Read one stored object back through the front door."""
        server = self.server
        size = server.volume_sizes.get(stripe_index)
        if size is None:
            raise StorageError(f"stripe {stripe_index} holds no object data")
        k = server.layout[stripe_index].k
        datas = await asyncio.gather(
            *(self.read_chunk(stripe_index, j, deadline=deadline) for j in range(k))
        )
        return server.code.join(list(datas), size)
