"""The asyncio repair service: one stripe queue, and a front door beside it.

:class:`RepairService` multiplexes many repairs over one
:class:`~repro.hdss.server.HighDensityStorageServer` whose chunk store is
(usually) a :class:`~repro.hdss.store.ShardedChunkStore`. Only a stripe
rebuilds a chunk: a :class:`StripePass` from the service's one queue,
started once fewer than ``max_concurrent_stripes`` passes run and none of its
stripe does, holding the stripe until its chunks landed and are remapped.
Its targets are what the stripe has lost when it starts or re-plans
(:meth:`RepairService.lost_shards`: failed disks + quarantine).

* ``submit_repair(disk)`` plans every stripe the disk touches with the
  configured HD-PSR scheme and queues one pass per plan row, at the back:
  a round takes ``len(round)`` of the server's ``c`` chunk slots
  (:class:`~repro.service.admission.SlotWaiter`), then its disks' gate
  slots (:meth:`RepairService._read_round`). A decoded stripe appends its
  ``stripe_done`` record, then puts its rebuilt chunks while it still holds
  its pool slot — the write path's only back-pressure.
* ``repair_chunk(stripe, shard)``, the read-repair of a quarantined chunk,
  queues a one-stripe job at the front.
* ``read_chunk(stripe, shard)`` is the client-facing read path. Reads of
  healthy chunks take a foreground-priority slot on the owning disk; reads
  of *lost* chunks become degraded reads that **piggyback** on the stripe's
  running or queued pass (its ``decoded`` future resolves before its puts)
  or decode on their own, never writing.

Every repair read is priced, before it is issued, on :attr:`RepairService.clock`
— a :class:`~repro.core.stripe_repair.ReadClock`, one serial logical clock.
It is the fault clock, not a measure of the daemon's speed: a fault's
``at`` means seconds of priced reads, so a timed fault lands at the same
read whenever the stripes run one at a time. ``submit_repair``,
``repair_chunk`` and :func:`~repro.core.recovery.recover_disk` all run
their jobs through :meth:`RepairService.run_job`, the one job body.

Crash consistency reuses the repair journal unchanged: a disk's one live
job writes ``begin`` and a ``stripe_done`` per stripe it lists into its own
directory (``journal_root/disk-NNN``), and ``submit_repair(disk, resume=True)``
replays every finished stripe whose rebuilt chunks landed (or are in the
record) without a survivor read and redoes the rest from the plan.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.base import RepairAlgorithm
from repro.core.plans import RepairPlan, StripePlan
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
    ClusterError,
    CodingError,
    ConfigurationError,
    FencedError,
    InsufficientShardsError,
    JournalError,
    LatentSectorError,
    StorageError,
)
from repro.faults.injector import FaultInjector
from repro.faults.report import LOST, RECOVERED, DataLossReport
from repro.faults.spec import FaultSchedule
from repro.hdss.server import HighDensityStorageServer, ScrubReport
from repro.journal.journal import RepairJournal, load_state
from repro.obs.context import current_registry, current_tracer
from repro.obs.metrics import LATENCY_BUCKETS, Family
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
#: Histogram: seconds from corruption seeding to quarantine (only
#: observable when the seeding side stamped the chunk, e.g. chaos runs).
DETECTION_LATENCY = "hdpsr_scrub_detection_latency_seconds"
#: Histogram of wall-clock front-door read latency, labelled by path.
READ_LATENCY = "hdpsr_service_read_latency_seconds"
#: Counter: chunk reads, by the thread that made them — ``loop`` (a
#: ``get_cached`` that answered) or ``worker`` (a ``get``).
CHUNK_READS = "hdpsr_service_chunk_reads_total"

#: Quantiles ``stats`` reports for foreground latency (the SLO tail).
READ_LATENCY_QUANTILES = (0.5, 0.9, 0.99, 0.999)

# The front door's series, resolved once per registry (obs.metrics.Family).
_CHUNK_READS = Family(
    "counter", CHUNK_READS, "service chunk reads, by thread (loop or worker)",
    label="path",
)
_DEGRADED_READS = Family(
    "counter", DEGRADED_READS, "front-door reads of lost chunks", label="source"
)
_FOREGROUND_READS = Family("counter", FOREGROUND_READS, "front-door reads served")
_READ_LATENCY = Family(
    "histogram", READ_LATENCY, "front-door read wall latency",
    label="path", buckets=LATENCY_BUCKETS,
)

#: One survivor read as a worker call saw it: ``(shard, disk, payload or
#: the store's unreadable error, started, seconds)`` — both 0.0 when the
#: read was not timed.
Gotten = Tuple[int, int, object, float, float]


def _read_and_fold(
    store, si: int, reads: Sequence[Tuple[int, int]],
    decoder: Optional[PartialDecoder], gotten: Sequence[Gotten] = (),
    timed: bool = False,
) -> Tuple[List[Gotten], Optional[Tuple[float, float]]]:
    """A round's worker-thread body: ``get`` each ``(shard, disk)`` of
    ``reads`` in turn — the store verifies every byte — timing each on
    the monotonic clock when ``timed``, then fold everything that arrived
    (``gotten`` too: reads earlier calls made) into ``decoder``, when one
    is given.

    Returns the reads kept and the fold's ``(started, seconds)`` (None when
    nothing was folded). An unreadable chunk comes back as its error and
    ends the round: nothing after it is read, or kept when an overlapping
    store already had it in flight. Any other error fails the call.
    """
    gotten = list(gotten)
    counted = _CHUNK_READS(current_registry(), "worker")
    for shard, disk_id in reads:
        counted.inc()
        started = time.monotonic() if timed else 0.0
        try:
            payload = store.get(disk_id, ChunkId(si, shard))
        except (LatentSectorError, ChunkNotFoundError) as exc:
            payload = exc
        seconds = time.monotonic() - started if timed else 0.0
        gotten.append((shard, disk_id, payload, started, seconds))
        if not isinstance(payload, np.ndarray):
            break
    for i, (_, _, payload, _, _) in enumerate(gotten):
        if not isinstance(payload, np.ndarray):
            del gotten[i + 1:]  # overlapping reads after it were in flight
            break
    arrived = {
        shard: payload for shard, _, payload, _, _ in gotten
        if isinstance(payload, np.ndarray)
    }
    if decoder is None or not arrived:
        return gotten, None
    started = time.monotonic()
    decoder.feed(arrived)
    return gotten, (started, time.monotonic() - started)


def _record_then_put(
    store, si: int, record: Optional[Callable[[], None]],
    written: Sequence[Tuple[int, int, np.ndarray]],
) -> None:
    """A finished stripe's worker-thread body: its journal ``record``, when
    it has one, then a ``put`` of each rebuilt ``(target, spare, payload)``."""
    if record is not None:
        record()
    for target, spare, payload in written:
        store.put(spare, ChunkId(si, target), payload)


async def _get_and_fold(
    store, si: int, reads: Sequence[Tuple[int, int]],
    decoder: Optional[PartialDecoder], gotten: Sequence[Gotten] = (),
    timed: bool = False,
) -> Tuple[List[Gotten], Optional[Tuple[float, float]]]:
    """:func:`_read_and_fold`, page cache first: each read in turn is a
    ``store.get_cached`` on the event loop. The first that answers None,
    and every read after it, go with the fold to one worker call; when all
    of them answered, the fold runs on the loop too.

    Each cached read ends its loop step (``sleep(0)``), so other tasks and
    the loop's own timers run between a round's reads rather than behind
    the whole round."""
    gotten = list(gotten)
    counted = _CHUNK_READS(current_registry(), "loop")
    for i, (shard, disk_id) in enumerate(reads):
        started = time.monotonic() if timed else 0.0
        payload = store.get_cached(disk_id, ChunkId(si, shard))
        if payload is None:
            return await asyncio.to_thread(
                _read_and_fold, store, si, reads[i:], decoder, gotten, timed
            )
        counted.inc()
        seconds = time.monotonic() - started if timed else 0.0
        gotten.append((shard, disk_id, payload, started, seconds))
        await asyncio.sleep(0)
    return _read_and_fold(store, si, (), decoder, gotten)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`RepairService`.

    Attributes:
        max_concurrent_stripes: stripe passes the whole service runs at
            once, across every job and read-repair — the looser of two
            caps: survivor chunks in flight are bounded by the server's
            ``c``-slot memory, this bounds the ``t`` accumulators per
            stripe on top of it.
        per_disk_reads: concurrent reads allowed per disk (gate width).
        policy: read-hardening knobs applied to repair reads as the read
            clock prices them (timeouts, retries, hedging).
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
        """The JSON-safe fields (all but ``loss`` and ``scrub``), then the verdict."""
        row = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("loss", "scrub")}
        return {**row, "certified": self.certified, "exit_code": self.exit_code}


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


class ServiceJob(RepairJob):
    """One :class:`~repro.core.repair_job.RepairJob` plus the supervisor's
    own bookkeeping: which disk, which journal, and the live-telemetry
    fields read by :meth:`RepairService.snapshot`."""

    disk: int = -1
    journal: Optional[RepairJournal] = None
    job_id: int = -1
    started_wall: float = 0.0
    stripes_done: int = 0
    finished: bool = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Quarantine keys its in-place rewrites lifted as they landed.
        self.lifted: Set[Tuple[int, ChunkId]] = set()

    def progress(self) -> dict:
        """One job's live progress row (JSON-safe, served by ``stats``)."""
        total = len(self.stripe_indices)
        done = self.stripes_done
        stats = self.stats
        elapsed = time.monotonic() - self.started_wall
        decoded = done - stats.resumed_stripes  # a replayed stripe reads nothing
        if self.finished:
            eta = 0.0
        elif decoded > 0:
            eta = elapsed / decoded * (total - done)
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


@dataclass(eq=False)
class StripePass:
    """One entry of the stripe queue: ``job``'s plan row for stripe ``si``.
    ``turn`` resolves once the pool has room and no other pass of ``si``
    runs; the pass then holds ``si`` until its chunks landed and are homed."""

    job: ServiceJob
    sp: StripePlan
    si: int
    shards: List[int]
    #: ``{target: payload}`` (``None``: lost), set before the puts.
    decoded: "asyncio.Future"
    turn: "asyncio.Future"


class RepairService:
    """Supervises concurrent repairs and serves reads while they run.

    Args:
        server: the storage server (ideally store-sharded) to operate.
        algorithm: repair scheme used to plan every submitted repair.
        config: service knobs; defaults are test-friendly.
        faults: optional fault schedule, fired on :attr:`clock` (one
            injector per service — the schedule is server-wide, not
            per-job).
        fence: optional ownership fence, called with a disk id
            immediately before every durable effect on it (journal commits,
            chunk write-backs, spare remapping); a rebuilt chunk whose home
            disk it refuses is left to that disk's owner. Cluster daemons install
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
        #: The stripe queue: passes waiting for the pool, in start order.
        self._queue: List[StripePass] = []
        #: stripe index -> its one running pass (the pool's occupants).
        self._running: Dict[int, StripePass] = {}
        self._tickets: Dict[int, RepairTicket] = {}
        #: job_id -> supervisor job state, kept after completion for `top`.
        self._jobs: Dict[int, ServiceJob] = {}
        self._next_job = 0
        #: Quarantined chunks: (disk_id, ChunkId) -> wall time of detection.
        #: A quarantined chunk is lost (:meth:`lost_shards`): never served,
        #: never a decode survivor, until a pass rewrites it.
        self.quarantine: Dict[Tuple[int, ChunkId], float] = {}
        #: Rebuilt chunks no certify has verified since a pass landed them:
        #: (stripe, shard) -> the job whose pass landed it last. Every
        #: job's certify verifies those on its stripes, not only its own.
        self._unverified: Dict[Tuple[int, int], ServiceJob] = {}
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
        """Wait for the front door's background read-repairs. A job's puts
        are awaited by the job itself, so no write is left to flush."""
        if self._chunk_repairs:
            await asyncio.gather(*list(self._chunk_repairs), return_exceptions=True)

    # --------------------------------------------------------------- fencing
    def _check_fence(self, disk_id: int) -> None:
        """Refuse a durable effect unless we still own ``disk_id``'s shard."""
        if self.fence is not None:
            self.fence(disk_id)

    def _owns(self, disk_id: int) -> bool:
        """Whether this node may write ``disk_id``'s chunks (the fence holds)."""
        try:
            self._check_fence(disk_id)
        except FencedError:
            return False
        return True

    # ------------------------------------------------- quarantine & read-repair
    def is_quarantined(self, disk_id: int, chunk_id: ChunkId) -> bool:
        """Whether a chunk is blocked from being served (failed verify, and
        no pass has rewritten it since)."""
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
        ``foreground`` / ``degraded`` / ``repair`` / ``resume``). With
        ``auto_repair`` (the front door) a background :meth:`repair_chunk`
        task is spawned; the scrub plane awaits it itself, and a repair
        round's stripe takes the chunk as a target instead.
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
            registry.histogram(
                DETECTION_LATENCY,
                "seconds from corruption seeding to quarantine",
                buckets=LATENCY_BUCKETS,
            ).observe(now - seeded)
        current_tracer().instant(
            "service", f"quarantine s{stripe_index}/{shard_idx}",
            disk=disk_id, stripe=stripe_index, shard=shard_idx, source=source,
        )
        if auto_repair:
            task = asyncio.get_running_loop().create_task(
                self.repair_chunk(stripe_index, shard_idx),
                name=f"chunk-repair-{stripe_index}.{shard_idx}",
            )
            self._chunk_repairs.add(task)
            task.add_done_callback(self._chunk_repairs.discard)
        return True

    async def repair_chunk(self, stripe_index: int, shard_idx: int) -> bool:
        """The read-repair behind quarantine: a one-stripe job through
        :meth:`run_job` (background gate slots), queued at the front, whose
        pass rebuilds everything the stripe has lost. True once the chunk is
        no longer lost — with no read when a pass already rewrote it. False
        when it still is: fewer than ``k`` clean survivors, a rewrite that
        failed its verify, or a job that failed (no spare left for a chunk
        on a failed disk, a failed put, a lost fence). The chunk then stays
        quarantined for a retry; a scripted crash still propagates.
        """
        stripe = self.server.layout[stripe_index]
        if not 0 <= shard_idx < stripe.n:
            raise ConfigurationError(f"stripe has no shard {shard_idx}")
        survivors = readable_shards(
            self.server, stripe_index, stripe, skip=self.is_quarantined,
            limit=stripe.k,
        )
        error = "fewer than k clean survivors"
        if shard_idx in self.lost_shards(stripe_index) and len(survivors) == stripe.k:
            job = ServiceJob(
                RepairPlan("read-repair", [StripePlan(0, [list(range(stripe.k))])]),
                [stripe_index], [survivors], [stripe.disks[shard_idx]],
                self.server.config.fingerprint(),
            )
            job.disk = stripe.disks[shard_idx]
            try:
                await self.run_job(job, front=True)
                error = "the rewrite did not certify"
            except (StorageError, CodingError, ClusterError) as exc:
                error = repr(exc)
        if shard_idx not in self.lost_shards(stripe_index):
            return True
        current_tracer().instant(
            "service", f"read-repair failed s{stripe_index}/{shard_idx}", error=error
        )
        return False

    def lost_shards(self, si: int) -> List[int]:
        """The shards stripe ``si`` has lost *now*, whatever lost them: on a
        failed disk, or quarantined. Its targets when it starts or re-plans."""
        disks = self.server.disks
        return [
            shard for shard, d in enumerate(self.server.layout[si].disks)
            if disks[d].is_failed or self.is_quarantined(d, ChunkId(si, shard))
        ]

    def _landed(self, si: int, writebacks) -> Set[int]:
        """The targets of stripe ``si``'s journaled writebacks whose chunk
        landed (one worker call): on a spare, if it is there; at home, where
        the corrupt file it replaced is there too, if it verifies."""
        store, home = self.server.store, self.server.layout[si].disks
        landed = set()
        for target, disk_id, _ in writebacks:
            cid = ChunkId(si, target)
            if disk_id != home[target]:
                there = store.contains(disk_id, cid)
            else:
                try:
                    there = store.verify_chunk(disk_id, cid)
                except (LatentSectorError, ChunkNotFoundError):
                    there = False
            if there:
                landed.add(target)
        return landed

    async def _decode_chunk(
        self, stripe_index: int, stripe: Stripe, shard_idx: int, deadline: Optional[Deadline]
    ) -> np.ndarray:
        """A degraded front-door read's own decode (no repair to join): one
        round of ``k`` clean survivors on foreground slots, bounded by
        ``deadline``. The bytes are served, never written.

        A survivor that fails its digest verify is quarantined (its
        read-repair spawned) and surfaced as a retryable
        :class:`~repro.errors.ChunkQuarantinedError` — no ladder here: the
        retry plans around it.
        """
        server = self.server
        survivors = readable_shards(
            server, stripe_index, stripe,
            exclude=(shard_idx,), skip=self.is_quarantined, limit=stripe.k,
        )
        if len(survivors) < stripe.k:
            raise InsufficientShardsError(
                f"stripe {stripe_index}: {len(survivors)} clean survivors < k; "
                f"cannot decode shard {shard_idx}"
            )
        decoder = PartialDecoder(
            server.code, survivors, [shard_idx], chunk_size=server.config.chunk_size
        )
        _, faults = await self._read_round(
            stripe, stripe_index, survivors, decoder, deadline=deadline
        )
        if faults:
            fault = faults[0]
            if isinstance(fault.cause, ChunkChecksumError):
                raise ChunkQuarantinedError(
                    f"survivor shard {fault.shard} of stripe {stripe_index} "
                    "failed verification during a degraded decode",
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

        The job lists every stripe the disk touches; a pass that finds
        nothing lost records ``recovered`` with no read. With
        ``resume=True`` it continues from the disk's journal directory
        (``journal_root/disk-NNN``): the journaled plan is reused verbatim,
        finished stripes replay without a survivor read, and stripes that
        were in flight restart from the plan. A disk whose job is still
        live is refused (``StorageError``): two jobs never share a journal.
        """
        live = [t.job_id for t in self._tickets.values() if t.disk == disk_id and not t.done]
        if live:
            raise StorageError(f"disk {disk_id} already has live repair job {live[0]}")
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
        ``inflight_stripes`` counts the running stripe passes.
        """
        return {
            "failed": self.server.failed_disks(),
            "jobs": [self._jobs[jid].progress() for jid in sorted(self._jobs)],
            "inflight_stripes": len(self._running),
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
        fingerprint = server.config.fingerprint()
        if resume:
            if jdir is None:
                raise JournalError("resume needs a journal_root in ServiceConfig")
            state = await asyncio.to_thread(load_state, jdir)
            job = ServiceJob.resumed(state, fingerprint, jdir)
        else:
            if not server.disk(disk_id).is_failed:
                raise StorageError(
                    f"disk {disk_id} is healthy; fail it before submitting a repair"
                )
            failed = server.failed_disks()
            # The read clock prices reads unjittered, so the plan does too.
            planned = await asyncio.to_thread(
                plan_repair, server, self.algorithm, failed,
                stripes=server.stripes_needing_repair([disk_id]), jittered=False,
            )
            job = ServiceJob(
                planned.plan, planned.stripe_indices, planned.survivor_ids,
                failed, fingerprint,
            )
        if jdir is not None:
            job.journal = RepairJournal(jdir, durable=self.config.durable_journal)
        job.disk = disk_id
        job.job_id = job_id
        job.started_wall = started
        self._jobs[job_id] = job
        scrub = await self.run_job(job)
        stats = job.stats
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
        current_tracer().instant(
            "service", f"repair disk {disk_id} done",
            stripes=result.stripes, lost=result.stripes_lost,
        )
        return result

    async def run_job(self, job: ServiceJob, front: bool = False) -> ScrubReport:
        """Run a planned or resumed job to its end — open its journal, queue
        a pass per plan row (at the back, or ``front``), await them, fence,
        certify, finish — and return what certify proved; ``job.stats``
        holds the tally. A pass's error fails this job only."""
        server = self.server
        if job.state is not None:
            # Restart where the crashed incarnation stopped; the first
            # priced read then re-applies every event it already survived
            # (scripted crashes are skipped by the injector's skip budget).
            self.clock.now = max(self.clock.now, job.state.clock)
        self._ensure_injector(job.crashes_survived)
        tasks: List[asyncio.Task] = []
        try:
            if job.journal is not None:
                job.open(job.journal)
            loop = asyncio.get_running_loop()
            passes = [
                StripePass(job, sp, si, shards, loop.create_future(), loop.create_future())
                for sp, si, shards in job.rows()
            ]
            at = 0 if front else len(self._queue)
            self._queue[at:at] = passes
            tasks = [loop.create_task(self._run_pass(p)) for p in passes]
            for entry, task in zip(passes, tasks):
                task.add_done_callback(lambda _, entry=entry: self._end(entry))
            self._dispatch()
            # Once this returns, every rebuilt chunk has landed and is homed.
            await asyncio.gather(*tasks)
            self._check_fence(job.disk)
            scrub = await asyncio.to_thread(
                job.certify, server, job.commit(), self.is_quarantined,
                set(self._unverified),
            )
            for key in job.verified:
                if self._unverified.get(key) is job:
                    del self._unverified[key]
            for _, cid in job.lifted:
                if (cid.stripe_index, cid.shard_index) in job.verified:
                    self.corrupt_repaired += 1
                    current_registry().counter(
                        CORRUPT_REPAIRED, "quarantined chunks replaced by verified read-repair"
                    ).inc()
            job.finish(job.journal, self.clock.injector, self.clock.now)
        except BaseException:
            # SimulatedCrash, cancellation, a failed put or a fence lost at
            # the commit point: stop cleanly and keep the journal — a
            # resumed service (this one or the new owner) picks up after
            # the last record.
            for t in tasks:
                t.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            if job.journal is not None:
                job.journal.close()
            raise
        finally:
            job.finished = True
            # A rewrite certify did not verify is quarantined again, unless
            # a later pass has landed it since (that pass's job judges it).
            for disk_id, cid in job.lifted:
                if self._unverified.get((cid.stripe_index, cid.shard_index)) is job:
                    self.quarantine.setdefault((disk_id, cid), time.monotonic())
        return scrub

    # ------------------------------------------------------------ the queue
    def _dispatch(self) -> None:
        """Start waiting passes, front first, while fewer than
        ``max_concurrent_stripes`` run; one whose stripe runs waits, slotless."""
        for entry in list(self._queue):
            if len(self._running) >= self.config.max_concurrent_stripes:
                return
            if entry.si in self._running or entry.turn.done():  # done: cancelled
                continue
            self._queue.remove(entry)
            self._running[entry.si] = entry
            entry.turn.set_result(None)

    async def _run_pass(self, entry: StripePass) -> None:
        await entry.turn
        with current_tracer().span(
            "stripe", f"stripe-{entry.si}", track="service",
            stripe=entry.si, disk=entry.job.disk, job=entry.job.job_id,
        ):
            await self._repair_stripe(entry)
        entry.job.stripes_done += 1

    def _end(self, entry: StripePass) -> None:
        """A pass's task is done — run, failed, or cancelled, even before
        its first step: free its slot, or take it off the queue."""
        if self._running.get(entry.si) is entry:
            del self._running[entry.si]
        else:
            self._queue.remove(entry)
        if not entry.decoded.done():
            entry.decoded.set_result(None)  # readers fall back to their own decode
        self._dispatch()

    def _pass_of(self, si: int) -> Optional[StripePass]:
        """Stripe ``si``'s running pass, else its first queued one."""
        return self._running.get(si) or next((p for p in self._queue if p.si == si), None)

    def _land(self, job: ServiceJob, si: int, placed: Sequence[Tuple[int, int]]) -> None:
        """Home stripe ``si``'s landed ``(target, disk)`` chunks where they
        landed, each fenced on its home disk as its put was, and unverified
        until a certify verifies it. One rewritten in place leaves quarantine
        now (every ``get`` verifies) and goes back at its job's end unless
        verified."""
        stripe = self.server.layout[si]
        for target, _ in placed:
            self._check_fence(stripe.disks[target])
        job.remap(self.server, si, placed)
        for target, disk_id in placed:
            self._unverified[si, target] = job
            key = (disk_id, ChunkId(si, target))
            if self.quarantine.pop(key, None) is not None:
                job.lifted.add(key)

    # ----------------------------------------------------------- stripe pass
    async def _repair_stripe(self, entry: StripePass) -> None:
        job, sp, si, shards = entry.job, entry.sp, entry.si, entry.shards
        server = self.server
        stripe = server.layout[si]

        done = job.journaled(si)
        if done is not None:
            landed = await asyncio.to_thread(self._landed, si, done.writebacks)
            for target, disk_id, _ in done.writebacks:
                if disk_id == stripe.disks[target] and target not in landed:
                    # The record outlived the quarantine: quarantined again
                    # until a replayed put or a fresh start rewrites it.
                    self.quarantine_chunk(disk_id, si, target, "resume")
            done = job.drop_superseded(done, self.lost_shards(si), stripe.disks)
            if not job.replayable(done, landed):
                done = None
        if done is not None:
            # Re-put what the spare is missing; zero survivor reads.
            self._check_fence(job.disk)
            for spare, cid, payload in job.replay_puts(
                si, done, landed, server.config.chunk_size
            ):
                self._check_fence(stripe.disks[cid.shard_index])
                await asyncio.to_thread(server.store.put, spare, cid, payload)
            replayed = () if done.outcome == LOST else done.writebacks
            self._land(job, si, [(t, disk_id) for t, disk_id, _ in replayed])
            # A record that only names its chunks hands piggybackers {}:
            # they fall back to their own decode.
            entry.decoded.set_result(None if done.outcome == LOST else {
                t: p for t, _, p in replayed if p is not None
            })
            return

        lost = self.lost_shards(si)  # the targets, whatever lost them
        outcome, results = RECOVERED, {}  # nothing lost: another pass rebuilt it
        if lost:
            repair = StripeRepair.fresh(
                server.code, shards, lost, sp, server.config.chunk_size,
                readable_shards(server, si, stripe, skip=self.is_quarantined)
                if set(lost) & set(shards) else (),  # the store is asked only to swap one
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
                if faults and job.stats.loss is None:
                    raise faults[0].cause  # not hardened: surface the real error
                # The first fault is the one handled: a second faulted shard
                # is re-read, and re-faults, on the re-planned rounds.
                if faults and repair.on_fault(
                    faults[0],
                    readable_shards(server, si, stripe, skip=self.is_quarantined),
                    self.lost_shards(si),
                ) == FORCE:
                    # No alternative survivor: force the slow read through
                    # (if it dies meanwhile, the ladder sees a dead shard).
                    rnd, forced = [faults[0].shard], True
                else:
                    rnd, forced = repair.next_round(), False
            repair.fold_into(job.stats)
            outcome = repair.outcome
            # The accumulators themselves: no worker call.
            results = None if outcome == LOST else repair.decoder.results()
        # Resolve the piggyback future *before* persisting: a degraded read
        # only needs the decoded bytes, not their new home.
        entry.decoded.set_result(results)
        if results or job.journal is not None:
            self._check_fence(job.disk)
        # A target on a shard this node does not own is its owner's.
        owned = [t for t in results or () if self._owns(stripe.disks[t])]
        written = [
            (target, disk_id, results[target]) for target, disk_id
            in place(stripe, owned, server.pick_spare, set(server.failed_disks()))
        ]
        job.record(si, outcome, written)
        # Record, then put (docs/robustness.md, rule 4), in one worker call:
        # a chunk that lands always has its record, so a crash never leads
        # to an identical re-put; a record whose chunk never landed starts
        # fresh (rule 3).
        record = None if job.journal is None else functools.partial(
            job.journal.stripe_done, si, outcome, self.clock.now,
            job.record_writebacks(server.store, written),
        )
        with current_tracer().span(
            "writeback", f"stripe-{si}/put", track="service",
            stripe=si, chunks=len(written),
        ):
            if record is not None or written:
                await asyncio.to_thread(_record_then_put, server.store, si, record, written)
        self._land(job, si, [(target, spare) for target, spare, _ in written])
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
        deadline: Optional[Deadline] = None,
        stats: Optional[DataPathStats] = None,
        forced: bool = False,
    ) -> Tuple[Dict[int, np.ndarray], List[ShardFault]]:
        """Read one round of survivors and fold what arrives into ``decoder``:
        a repair round (``stats`` given, background gate slots) or, without
        ``stats``, a degraded read's decode (foreground slots, unpriced).

        Takes the round's disk-gate slots in ascending disk order
        (:meth:`DiskGate.read_many`) and holds them for the reads. A repair
        round prices each read in round order
        on :attr:`clock` (``forced`` as ``ReadClock.price`` takes it; a slow
        :class:`ShardFault` skips that read, a dead one or an unreadable
        chunk ends the round). Each read is first a ``get_cached`` on the
        loop; the first it cannot answer, and the rest, go to one worker
        call that gets, verifies and folds the round, and when all were
        answered the fold runs on the loop (:func:`_get_and_fold`: none, or
        one hand-off). The reads already priced are got first when a fault
        falls due (``ReadClock.due``). Over a store whose reads overlap
        (``ChunkStore.reads_overlap``) each ``get`` has a call of its own,
        and one more call, after the gates, folds.

        Returns the chunks folded in and the round's faults in round order.
        A chunk that failed its digest verify is quarantined: a degraded
        decode spawns its read-repair, a repair round leaves it to its
        stripe's re-plan. A recording tracer gets a ``read`` span per
        arrived read (the ``get`` alone) and a ``decode`` span for the fold;
        the reads are timed only then.
        """
        store = self.server.store
        overlap = store.reads_overlap
        foreground = stats is None
        tracer = current_tracer()
        timed = tracer.enabled  # per-read timestamps feed only its spans
        faults: Dict[int, ShardFault] = {}
        reads: List[Tuple[int, int]] = []
        gotten: List[Gotten] = []
        async with self.gate.read_many(
            [stripe.disks[s] for s in shards], foreground=foreground, deadline=deadline
        ):
            for shard in shards:
                if stats is not None:
                    if reads and self.clock.due():
                        gotten, _ = await _get_and_fold(
                            store, si, reads, None, gotten, timed
                        )
                        reads = []
                        if not isinstance(gotten[-1][2], np.ndarray):
                            break
                    try:
                        self.clock.price(stripe.disks[shard], shard, stats, forced)
                    except ShardFault as fault:
                        faults[shard] = fault
                        if fault.dead:
                            break
                        continue
                reads.append((shard, stripe.disks[shard]))
            if overlap:
                parts = await asyncio.gather(*(
                    asyncio.to_thread(_read_and_fold, store, si, [read], None, (), timed)
                    for read in reads
                ))
                gotten += [g for part, _ in parts for g in part]
            else:
                gotten, fold = await _get_and_fold(
                    store, si, reads, decoder, gotten, timed
                )
        if overlap:  # the fold needs no disk
            gotten, fold = await asyncio.to_thread(
                _read_and_fold, store, si, (), decoder, gotten
            )
        fed: Dict[int, np.ndarray] = {}
        for shard, disk_id, payload, started, seconds in gotten:
            if not isinstance(payload, np.ndarray):
                if isinstance(payload, ChunkChecksumError):
                    self.quarantine_chunk(
                        disk_id, si, shard,
                        source="degraded" if foreground else "repair",
                        auto_repair=foreground,
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
        started = time.monotonic()
        store = server.store
        if not server.disk(disk_id).is_failed and not self.is_quarantined(disk_id, cid):
            if self.overload is not None:
                self.overload.admit(
                    CLASS_READ, queue_depth=self.gate.queue_depth(disk_id)
                )
            async with self.gate.read(disk_id, foreground=True, deadline=deadline):
                # The store is asked whether the chunk is there only when
                # the page cache cannot answer: a missing chunk answers None.
                data = store.get_cached(disk_id, cid)
                if data is not None:
                    _CHUNK_READS(registry, "loop").inc()
                    await asyncio.sleep(0)
                elif store.is_readable(disk_id, cid):
                    (read,), _ = await asyncio.to_thread(
                        _read_and_fold, store, stripe_index, [(shard_idx, disk_id)], None
                    )
                    data = read[2]
            if isinstance(data, np.ndarray):
                self._observe_read(registry, "healthy", started)
                return data
            if data is not None and not isinstance(data, LatentSectorError):
                raise data
            # Missing, an unreadable sector or a failed verify: no bytes
            # escaped, so fall through to the degraded path below.
            if isinstance(data, ChunkChecksumError):
                # Silent corruption: quarantine and kick off the read-repair.
                self.quarantine_chunk(
                    disk_id, stripe_index, shard_idx,
                    source="foreground", auto_repair=True,
                )

        if self.overload is not None:
            self.overload.admit(CLASS_DEGRADED)
        tracer = current_tracer()
        entry = self._pass_of(stripe_index)
        if entry is not None:
            with tracer.span(
                "wait", f"piggyback:{stripe_index}", track="service",
                stripe=stripe_index, shard=shard_idx,
            ):
                results = await self._await_piggyback(entry.decoded, deadline)
            if results is not None and shard_idx in results:
                _DEGRADED_READS(registry, "piggyback").inc()
                self._observe_read(registry, "piggyback", started)
                return results[shard_idx]
        _DEGRADED_READS(registry, "decode").inc()
        decode = self._decode_chunk(stripe_index, stripe, shard_idx, deadline)
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

    @staticmethod
    def _observe_read(registry, path: str, started: float) -> None:
        """Count one front-door read that returned bytes, and record its
        wall latency in its path's histogram."""
        _FOREGROUND_READS(registry).inc()
        _READ_LATENCY(registry, path).observe(time.monotonic() - started)

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
