"""One repair job, written once: plan → journal/resume → replay → place → finish.

:mod:`~repro.core.stripe_repair` is what HD-PSR does to one *stripe*; this
module is the *job* around the stripes — what HD-PSR actually schedules:
assemble ``L_{s×k}``, let the scheme pick ``P_a``, run the stripes, land the
rebuilt chunks and close the books. The stripe is the unit of repair: a
stripe's targets are whatever it has lost when it starts or re-plans (a
failed disk's chunk, a quarantined one), never a set fixed at plan time —
so a disk job and a one-chunk read-repair are the same job, and a stripe's
rebuilt chunks are homed where they landed as the stripe ends. Like the
stripe machine it is sans-I/O: it imports no event loop, thread, clock,
store or journal writer. One driver *performs* what it says — the asyncio
:class:`~repro.service.service.RepairService`, whose
:meth:`~repro.service.service.RepairService.run_job` also runs the jobs
:func:`~repro.core.recovery.recover_disk` plans; the timing-plane callers
(:func:`~repro.core.scheduler.repair_single_disk`, the multi-disk phases,
:func:`~repro.reliability.mttdl.estimate_repair_seconds`) use the planning
half only.

* :func:`plan_repair` — survivors → oracle/planning matrices → source-disk
  ids → ``build_plan``; the only caller of ``build_plan`` outside the
  algorithm classes, and the one place the order of jittered
  ``transfer_time`` draws is decided.
* :func:`place` — the one placement rule: a rebuilt chunk whose home disk
  is alive is rewritten at home, any other goes to a spare.
* :class:`RepairJob` — the plan, the stripe and survivor lists, the one
  :class:`DataPathStats` tally and, when resuming, the replayed journal
  state: :meth:`~RepairJob.resumed` (the one fingerprint guard),
  :meth:`~RepairJob.open` (``begin`` or ``resume`` record),
  :meth:`~RepairJob.journaled`, :meth:`~RepairJob.drop_superseded` (a
  recorded chunk another pass rebuilt since is not the job's any more)
  and :meth:`~RepairJob.replayable` (replay a journaled stripe only if
  the chunks the driver found landed cover it; every other stripe starts
  fresh),
  :meth:`~RepairJob.replay_puts` (the one write-side redo),
  :meth:`~RepairJob.record_writebacks` (a chunk's name in a persistent
  store's ``stripe_done``, its bytes in a volatile one's),
  :meth:`~RepairJob.remap` (a stripe's placement commit),
  :meth:`~RepairJob.commit`, :meth:`~RepairJob.certify` (the job's one
  ``store.sync``, then the one certification, from what the job already
  verified) and :meth:`~RepairJob.finish` (``complete`` record, counter
  fold, metric export).

The journal and the server are handed in by the driver at the points where
it has decided the effect may happen; the job never holds either.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.base import RepairAlgorithm, RepairContext
from repro.core.plans import RepairPlan, StripePlan
from repro.core.stripe_repair import readable_shards
from repro.ec.stripe import ChunkId, Stripe
from repro.errors import (
    ChunkNotFoundError,
    JournalError,
    LatentSectorError,
    StorageError,
)
from repro.faults.report import LOST, RECOVERED, DataLossReport
from repro.hdss.prober import ActiveProber
from repro.hdss.server import ScrubReport
from repro.obs.context import current_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.hdss.server import HighDensityStorageServer
    from repro.hdss.store import ChunkStore
    from repro.journal.journal import RepairJournal, RepairState, StripeDone


@dataclass
class DataPathStats:
    """Byte-level accounting of one repair."""

    stripes_repaired: int = 0
    chunks_read: int = 0
    bytes_read: int = 0
    chunks_rebuilt: int = 0
    bytes_written: int = 0
    peak_memory_chunks: int = 0
    #: (stripe_index, shard_index, spare_disk) of every rebuilt chunk.
    writebacks: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Modeled seconds of transfer/backoff the repair spent (logical clock).
    modeled_seconds: float = 0.0
    #: Reads that hit the policy timeout at least once.
    timeouts: int = 0
    #: Retry attempts issued after a timeout.
    retries: int = 0
    #: Reads re-planned onto a different survivor because of slowness.
    hedged_reads: int = 0
    #: Mid-repair survivor-set changes that salvaged the partial sums.
    replans: int = 0
    #: Survivor-set changes that had to discard partial sums and restart.
    fresh_restarts: int = 0
    #: Chunks whose reads were preserved by a salvage replan.
    salvaged_chunks: int = 0
    #: Chunk reads issued more than once for the same stripe.
    reread_chunks: int = 0
    #: Chunk reads rejected by digest verification.
    checksum_failures: int = 0
    #: Stripes whose terminal outcome was replayed from the journal.
    resumed_stripes: int = 0
    #: Journaled payloads re-put during replay (no survivor reads) — only
    #: a volatile store's records carry any.
    replayed_chunks: int = 0
    #: Stripes with fewer than k readable shards (recorded, not raised).
    stripes_lost: int = 0
    #: Per-stripe outcome report; None when the run was fault-free by
    #: construction (no injector, read policy or journal).
    loss: Optional[DataLossReport] = None


#: ``DataPathStats`` counters folded onto the same-named ``DataLossReport``
#: fields at :meth:`RepairJob.finish`, with the metric each one exports.
_LOSS_COUNTERS = (
    ("timeouts", "hdpsr_read_timeouts_total", "Survivor reads that hit the timeout"),
    ("retries", "hdpsr_read_retries_total", "Survivor read retries after backoff"),
    ("hedged_reads", "hdpsr_hedged_reads_total", "Reads re-planned off a slow disk"),
    ("replans", "hdpsr_replans_total", "Mid-repair salvage replans"),
    ("fresh_restarts", "hdpsr_fresh_restarts_total", "Salvage-infeasible full restarts"),
    ("salvaged_chunks", "hdpsr_chunks_salvaged_total", "Chunks preserved by salvage replans"),
    ("reread_chunks", "hdpsr_replan_reread_chunks_total", "Chunk reads repeated after faults"),
    ("checksum_failures", None, None),
    ("resumed_stripes", "hdpsr_resume_stripes_replayed_total", "Stripe outcomes replayed from the journal"),
    ("replayed_chunks", "hdpsr_resume_chunks_redone_total", "Journaled payloads re-put during replay (volatile stores only)"),
)


@dataclass
class PlannedRepair:
    """What :func:`plan_repair` decided, and the matrices it decided from."""

    plan: RepairPlan
    #: Global stripe index per plan row.
    stripe_indices: List[int]
    #: Survivor shard ids per (row, column).
    survivor_ids: List[List[int]]
    #: Oracle transfer times ``L_{s×k}`` — what execution will really cost.
    L: np.ndarray = field(repr=False)
    #: Source-disk id of every entry of ``L``.
    disk_ids: np.ndarray = field(repr=False)
    #: Probe traffic an active scheme issued to estimate its planning matrix.
    probe_bytes: int = 0


def _disk_id_matrix(
    server: "HighDensityStorageServer",
    stripe_indices: Sequence[int],
    survivor_ids: Sequence[Sequence[int]],
) -> np.ndarray:
    """s x k matrix of source-disk ids aligned with the L matrix."""
    rows = []
    for si, shards in zip(stripe_indices, survivor_ids):
        stripe = server.layout[si]
        rows.append([stripe.disks[j] for j in shards])
    return np.asarray(rows, dtype=np.int64)


def plan_repair(
    server: "HighDensityStorageServer",
    algorithm: RepairAlgorithm,
    failed: Sequence[int],
    *,
    stripes: Optional[Sequence[int]] = None,
    select: str = "first",
    jittered: bool = True,
    prober: Optional[ActiveProber] = None,
    context: Optional[RepairContext] = None,
) -> PlannedRepair:
    """Plan the repair of ``stripes`` with no survivor on a ``failed`` disk.

    ``stripes`` defaults to every stripe touching a failed disk. Survivors
    are picked and oracle times drawn stripe by stripe (``jittered`` draws
    consume each source disk's RNG, in this order); an active scheme then
    plans from ``prober`` estimates (default: a fresh
    :class:`~repro.hdss.prober.ActiveProber`) — it never sees the oracle.
    ``context.disk_ids`` is filled in unless the caller already set it.

    Raises:
        StorageError: no stripes to repair, or one has fewer than k survivors.
    """
    stripe_indices, survivor_ids, L = server.transfer_time_matrix(
        failed, select=select, jittered=jittered, stripes=stripes
    )
    if not stripe_indices:
        raise StorageError(f"disks {list(failed)} hold no stripes; nothing to repair")
    disk_ids = _disk_id_matrix(server, stripe_indices, survivor_ids)
    L_plan, probe_bytes = L, 0
    if algorithm.requires_probing:
        prober = prober or ActiveProber(server)
        L_plan = np.asarray(
            [[prober.estimated_chunk_time(d) for d in row] for row in disk_ids.tolist()],
            dtype=np.float64,
        )
        probe_bytes = prober.probe_bytes_issued
    ctx = context or RepairContext()
    if ctx.disk_ids is None:
        ctx.disk_ids = disk_ids
    plan = algorithm.build_plan(L_plan, server.config.memory_chunks, context=ctx)
    return PlannedRepair(plan, stripe_indices, survivor_ids, L, disk_ids, probe_bytes)


def place(
    stripe: Stripe,
    targets: Sequence[int],
    pick_spare: Callable[..., int],
    failed: Collection[int],
) -> List[Tuple[int, int]]:
    """Choose a disk for every rebuilt shard: ``[(target, disk)]``.

    A target whose home disk is not ``failed`` (a chunk quarantined after a
    failed verify) is rewritten at home; any other goes to a spare. Never
    two shards of one stripe on one spare — including two *rebuilt* shards
    of a multi-target cooperative repair.
    """
    exclude = list(stripe.disks)
    placed: List[Tuple[int, int]] = []
    for target in targets:
        disk = stripe.disks[target]
        if disk in failed:
            disk = pick_spare(exclude=exclude)
            exclude.append(disk)
        placed.append((target, disk))
    return placed


def certified(loss: Optional[DataLossReport], scrub: ScrubReport) -> bool:
    """True when no stripe was lost and every kept one certified clean.

    ``scrub`` is what :meth:`RepairJob.certify` reported. Strict by design:
    a disk that died *during* the repair leaves its own chunks missing from
    otherwise-recovered stripes, so those stripes certify degraded and
    certification fails — the honest signal that another recovery (for the
    new disk) is still owed.
    """
    if loss is not None and loss.has_loss:
        return False
    return scrub.healthy and not scrub.unpopulated


class RepairJob:
    """One repair: the plan, what it covers, its tally, its journal bracket.

    Construct one from what :func:`plan_repair` decided, or :meth:`resumed`
    from a replayed journal. ``hardened=False`` marks a run that is
    fault-free by construction: ``stats.loss`` stays ``None`` and drivers
    raise the real error instead of recording a stripe as lost.
    """

    def __init__(
        self,
        plan: RepairPlan,
        stripe_indices: Sequence[int],
        survivor_ids: Sequence[Sequence[int]],
        failed: Sequence[int],
        fingerprint: Mapping[str, object],
        state: "Optional[RepairState]" = None,
        hardened: bool = True,
    ) -> None:
        if not failed:
            raise StorageError("no failed disks; nothing to rebuild")
        self.plan = plan
        #: Global stripe index per plan row.
        self.stripe_indices = list(stripe_indices)
        #: Survivor shard ids per (row, column).
        self.survivor_ids = [list(row) for row in survivor_ids]
        #: Failed disks at plan time, for ``begin``; never a stripe's targets.
        self.failed = list(failed)
        self.fingerprint = fingerprint
        #: The crashed incarnation's journal, replayed (``None`` when fresh).
        self.state = state
        self.stats = DataPathStats(loss=DataLossReport() if hardened else None)
        #: Shards remapped onto spares by :meth:`remap`.
        self.remapped = 0
        #: ``(stripe, target)`` of every rebuilt chunk :meth:`certify`
        #: re-read intact — the chunks a driver may vouch for one by one.
        self.verified: Set[Tuple[int, int]] = set()

    @classmethod
    def resumed(
        cls, state: "RepairState", fingerprint: Mapping[str, object], source: object
    ) -> "RepairJob":
        """Continue the job journaled at ``source`` — plan reused verbatim.

        Raises:
            JournalError: the journal belongs to a different server
                configuration (replaying it would put payloads in the
                wrong places).
        """
        if state.fingerprint != fingerprint:
            diff = sorted(
                k for k in set(state.fingerprint) | set(fingerprint)
                if state.fingerprint.get(k) != fingerprint.get(k)
            )
            raise JournalError(
                f"journal {source} was written by a different server "
                f"configuration (mismatched: {diff}); refusing to resume"
            )
        return cls(
            RepairPlan.from_dict(state.plan), state.stripe_indices,
            state.survivor_ids, state.failed_disks, fingerprint, state=state,
        )

    # ---------------------------------------------------------------- journal
    def open(self, journal: "RepairJournal") -> None:
        """This incarnation's first record: ``resume`` or ``begin``."""
        if self.state is not None:
            journal.mark_resume(self.state.clock)
        else:
            journal.begin(
                algorithm=self.plan.algorithm,
                plan=self.plan.to_dict(),
                stripe_indices=self.stripe_indices,
                survivor_ids=self.survivor_ids,
                failed_disks=self.failed,
                fingerprint=self.fingerprint,
            )

    @property
    def crashes_survived(self) -> int:
        """Scripted ``process_crash`` events earlier incarnations already took
        (the original run plus one per ``resume`` record) — a fault injector
        must skip exactly those."""
        return self.state.resume_count + 1 if self.state is not None else 0

    # ---------------------------------------------------------------- stripes
    def rows(self) -> Iterator[Tuple[StripePlan, int, List[int]]]:
        """``(stripe plan, global stripe index, survivor shards)`` in the
        plan's admission order."""
        for sp in self.plan.stripe_plans:
            row = sp.stripe_index
            yield sp, self.stripe_indices[row], list(self.survivor_ids[row])

    def journaled(self, si: int) -> "Optional[StripeDone]":
        """Stripe ``si``'s terminal outcome as the crashed incarnation
        journaled it (``None``: none, or no crashed incarnation)."""
        return self.state.done.get(si) if self.state is not None else None

    @staticmethod
    def replayable(done: "StripeDone", landed: Collection[int]) -> bool:
        """Whether to replay :meth:`journaled` ``done`` — else the stripe
        starts fresh from its plan.

        Decided from what is *there*, not from what was promised:
        ``landed`` are the targets whose rebuilt chunk the driver found in
        place. A stripe replays — with :meth:`replay_puts`, no survivor
        read — iff it is LOST (nothing was rebuilt) or every rebuilt chunk
        landed or is carried in the record. Any other stripe starts fresh:
        one the crash caught mid-decode, and one whose named chunk never
        landed (drivers append the record before the put, and the crash
        fell in between) — re-read, re-put, re-recorded.
        """
        return done.outcome == LOST or all(
            payload is not None or target in landed
            for target, _spare, payload in done.writebacks
        )

    @staticmethod
    def drop_superseded(
        done: "StripeDone", lost: Collection[int], homes: Sequence[int]
    ) -> "StripeDone":
        """``done`` without the spare writebacks another pass has superseded:
        a target no longer ``lost`` and homed (``homes``) on another disk
        than the record's was rebuilt since. Its recorded chunk stays where
        it landed, never put, homed or counted again."""
        return replace(done, writebacks=[
            (target, disk, payload) for target, disk, payload in done.writebacks
            if target in lost or disk == homes[target]
        ])

    def replay_puts(
        self,
        si: int,
        done: "StripeDone",
        landed: Collection[int],
        chunk_size: int,
    ) -> List[Tuple[int, ChunkId, np.ndarray]]:
        """Redo a journaled stripe outcome without touching any survivor.

        :meth:`replayable` held, so every rebuilt chunk is in ``landed`` or
        in the record. Accounts the stripe (a chunk the record only
        names counts ``chunk_size`` bytes) and returns the ``(spare, chunk
        id, payload)`` puts the driver still has to make: carried payloads
        that did not land — a volatile store lost them with the process; a
        persistent store's records carry none, so this is empty. A LOST
        stripe landed nothing and replays nothing.
        """
        stats = self.stats
        stats.resumed_stripes += 1
        puts: List[Tuple[int, ChunkId, np.ndarray]] = []
        accounted: List[Tuple[int, int, int]] = []
        writebacks = () if done.outcome == LOST else done.writebacks
        for target, spare, payload in writebacks:
            cid = ChunkId(si, target)
            if payload is not None and target not in landed:
                puts.append((spare, cid, payload))
                stats.replayed_chunks += 1
            accounted.append(
                (target, spare, chunk_size if payload is None else int(payload.size))
            )
        self._account(si, done.outcome, accounted)
        return puts

    @staticmethod
    def record_writebacks(
        store: "ChunkStore", written: Sequence[Tuple[int, int, np.ndarray]]
    ) -> List[Tuple[int, int, Optional[np.ndarray]]]:
        """What ``stripe_done`` journals for the ``(target, spare, payload)``
        chunks a stripe is about to put: on a persistent store the put
        will be on the spare and the record only names it; a volatile
        store loses it with the process, so the record carries the bytes
        and replay stays a zero-re-read redo."""
        if store.persistent:
            return [(target, spare, None) for target, spare, _ in written]
        return list(written)

    def count_read(self, seen: Set[int], shard: int, nbytes: int) -> None:
        """Account one survivor read; ``seen`` is the stripe's read set."""
        stats = self.stats
        stats.chunks_read += 1
        stats.bytes_read += int(nbytes)
        if shard in seen:
            stats.reread_chunks += 1
        seen.add(shard)

    def record(
        self,
        si: int,
        outcome: str,
        written: Sequence[Tuple[int, int, np.ndarray]] = (),
    ) -> None:
        """Account stripe ``si``'s terminal outcome and the
        ``(target, spare, payload)`` chunks placed for it."""
        self._account(
            si, outcome, [(t, spare, int(p.size)) for t, spare, p in written]
        )

    def _account(
        self, si: int, outcome: str, landed: Sequence[Tuple[int, int, int]]
    ) -> None:
        """``landed`` is ``(target, spare, bytes)`` per chunk."""
        stats = self.stats
        if outcome == LOST:
            stats.stripes_lost += 1
        else:
            stats.stripes_repaired += 1
        for target, spare, nbytes in landed:
            stats.writebacks.append((si, target, spare))
            stats.chunks_rebuilt += 1
            stats.bytes_written += nbytes
        if stats.loss is not None:
            stats.loss.record(si, outcome)

    def remap(
        self, server: "HighDensityStorageServer", si: int,
        placed: Sequence[Tuple[int, int]],
    ) -> None:
        """Home stripe ``si``'s rebuilt ``(target, disk)`` shards where they
        landed (placement commit), once their puts returned — at the end of
        the stripe, so no later pass sees them lost."""
        self.remapped += server.commit_writebacks(
            [(si, target, disk) for target, disk in placed]
        )

    # ------------------------------------------------------------------- tail
    def commit(self) -> List[int]:
        """The stripes to certify: all the job covered but the lost."""
        loss = self.stats.loss
        lost = set(loss.lost) if loss is not None else set()
        return [si for si in self.stripe_indices if si not in lost]

    def sync(self, store: "ChunkStore") -> None:
        """The job's commit point: one ``store.sync`` — an fsync per spare
        directory the job landed chunks on — before ``complete``
        (docs/robustness.md, rule 4). The spares are named, not left to the
        store's own put marks: a resumed job replays chunks its dead
        predecessor put and never synced."""
        store.sync({spare for _si, _t, spare in self.stats.writebacks})

    def certify(
        self,
        server: "HighDensityStorageServer",
        kept: Sequence[int],
        vetoed: Callable[[int, ChunkId], bool],
        unverified: Collection[Tuple[int, int]] = (),
    ) -> ScrubReport:
        """Make the job's puts durable, then certify the ``kept`` stripes
        from what the job already verified.

        The first step is the job's one :meth:`sync`, before anything
        vouches for the chunks; the service runs this whole method in one
        worker call.

        Call after every stripe's :meth:`remap`, so every home is current.
        Each chunk the job landed — replayed ones included — is re-read
        once with ``verify_chunk``, and so is each ``(stripe, shard)`` of
        ``unverified``: a chunk another job landed and no certify has
        verified yet. One that passes joins :attr:`verified`, one that
        fails degrades its stripe. A stripe is also *degraded*
        when any shard's home is failed, missing, not ``is_readable`` or
        ``vetoed(disk, chunk)`` by the driver (the service's quarantine) —
        a vetoed chunk the job rewrote is judged by its verify instead.
        Everything else is *clean*. The survivors the decode read were
        verified by those very reads and the rebuilt chunk lies on their
        codeword by construction, so a fault-free stripe re-reads no
        survivor byte. A whole stripe that saw a fault (outcome not
        ``recovered``, in this incarnation or a journaled one) has *every*
        shard verified.

        The full-stripe parity proof is ``server.scrub`` — the scrub
        plane's and the chaos proofs' business, not every job's.
        """
        self.sync(server.store)
        landed: Dict[int, Set[int]] = {}
        for si, target, _spare in self.stats.writebacks:
            landed.setdefault(si, set()).add(target)
        loss = self.stats.loss
        outcomes = loss.stripes if loss is not None else {}
        others: Dict[int, Set[int]] = {}
        for si, shard in unverified:
            others.setdefault(si, set()).add(shard)
        report = ScrubReport()

        def intact(si: int, shard: int) -> bool:
            try:
                return server.store.verify_chunk(
                    server.layout[si].disks[shard], ChunkId(si, shard)
                )
            except (LatentSectorError, ChunkNotFoundError):
                return False

        for si in kept:
            stripe = server.layout[si]
            rewritten = landed.get(si, set())
            ok = len(readable_shards(server, si, stripe, skip=lambda d, c: (
                vetoed(d, c) and c.shard_index not in rewritten))) == stripe.n
            checked = rewritten | others.get(si, set())
            for shard in sorted(checked):
                if intact(si, shard):
                    self.verified.add((si, shard))
                else:
                    ok = False
            if ok and outcomes.get(si, RECOVERED) != RECOVERED:
                ok = all(intact(si, s) for s in range(stripe.n) if s not in checked)
            (report.clean if ok else report.degraded).append(si)
        return report

    def finish(
        self,
        journal: "Optional[RepairJournal]",
        injector: "Optional[FaultInjector]",
        modeled_seconds: float,
    ) -> DataPathStats:
        """Close the books: ``complete`` record, counter fold, metrics.

        ``modeled_seconds`` is the driver's clock at the end of the job.
        Every metric is incremented here, once per job.
        """
        stats = self.stats
        stats.modeled_seconds = modeled_seconds
        if journal is not None:
            journal.complete(
                stripes_repaired=stats.stripes_repaired,
                stripes_lost=stats.stripes_lost,
                chunks_rebuilt=stats.chunks_rebuilt,
                resumed_stripes=stats.resumed_stripes,
                modeled_seconds=modeled_seconds,
            )
            journal.close()
        registry = current_registry()
        registry.counter(
            "hdpsr_datapath_bytes_read_total", "Survivor bytes read on the data path"
        ).inc(stats.bytes_read)
        registry.counter(
            "hdpsr_datapath_bytes_written_total", "Rebuilt bytes written back"
        ).inc(stats.bytes_written)
        registry.counter(
            "hdpsr_datapath_chunks_rebuilt_total", "Chunks rebuilt on the data path"
        ).inc(stats.chunks_rebuilt)
        loss = stats.loss
        if loss is None:
            return stats
        if injector is not None:
            for kind, n in injector.applied.items():
                loss.count_fault(kind, n)
        for name, metric, help_text in _LOSS_COUNTERS:
            value = getattr(stats, name)
            setattr(loss, name, getattr(loss, name) + value)
            if metric and value:
                registry.counter(metric, help_text).inc(value)
        if stats.stripes_lost:
            registry.counter(
                "hdpsr_stripes_lost_total", "Stripes recorded as unrecoverable"
            ).inc(stats.stripes_lost)
        return stats
