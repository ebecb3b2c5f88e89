"""The byte-exact repair data path.

Timing studies use simulated clocks; this module moves the *actual bytes*:
surviving chunks flow from the chunk store through the bounded
:class:`~repro.hdss.memory.ChunkMemory` into a
:class:`~repro.ec.partial.PartialDecoder`, and rebuilt chunks are written
back to spare disks. The memory enforces the capacity ``c`` — a plan whose
rounds over-commit memory fails loudly here, which is how the test suite
proves every algorithm's plans respect the paper's constraint.

Stripes are processed in the plan's admission order. Concurrency is a
timing concern (handled by :mod:`repro.sim`); the data path is sequential
but holds, for each stripe, exactly the peak memory its plan declares
(round chunks + accumulators), so ``memory.peak_occupancy`` reflects one
stripe's true footprint.

Fault hardening
---------------

The executor keeps a *logical clock*: every modeled read advances it by the
disk's (unjittered) transfer time. A :class:`~repro.faults.injector.FaultInjector`
bound to the executor fires schedule events as the clock passes them — at
read boundaries, so reads are atomic. What happens when a pending survivor
dies or crawls mid-stripe — salvage the partial sums, restart from scratch,
or record the stripe as *lost* in a
:class:`~repro.faults.report.DataLossReport`, never an unhandled exception —
is decided by the one :class:`~repro.core.stripe_repair.StripeRepair`
machine; this module only performs its reads, prices them on the clock and
accounts memory.

A :class:`ReadPolicy` adds per-read timeouts with capped exponential
backoff (timeouts advance the clock, which lets transient slow/hang windows
expire) and optional hedged reads: a read that keeps timing out is re-planned
onto a different survivor. Timeouts alone never lose data — when no
alternative survivor exists the read is forced through at degraded speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.plans import RepairPlan, StripePlan
from repro.core.stripe_repair import (
    FORCE,
    READ_RETRY,
    READ_SLOW,
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
    DiskFailedError,
    LatentSectorError,
    StorageError,
)
from repro.faults.report import LOST, DataLossReport
from repro.hdss.server import HighDensityStorageServer
from repro.obs.context import current_registry, current_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
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
    writebacks: "List[tuple]" = None
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
    #: Chunk reads rejected by CRC32C sidecar verification.
    checksum_failures: int = 0
    #: Stripes whose terminal outcome was replayed from the journal.
    resumed_stripes: int = 0
    #: Journaled payloads re-put during replay (no survivor reads).
    replayed_chunks: int = 0
    #: Stripes with fewer than k readable shards (recorded, not raised).
    stripes_lost: int = 0
    #: Per-stripe outcome report; None when the run was fault-free by
    #: construction (no injector and no read policy).
    loss: Optional[DataLossReport] = None

    def __post_init__(self) -> None:
        if self.writebacks is None:
            self.writebacks = []


class DataPathExecutor:
    """Executes repair plans against real chunk bytes.

    Args:
        server: the storage server to repair.
        write_back: write rebuilt chunks to spare disks (default on).
        policy: read-hardening knobs; ``None`` reads without timeouts.
        injector: a :class:`~repro.faults.injector.FaultInjector` already
            bound to ``server``; its schedule fires as the logical clock
            advances past event times.
        journal: a :class:`~repro.journal.journal.RepairJournal` to
            checkpoint into — the plan at start, the decoder state at
            every round boundary, rebuilt payloads at stripe completion.
        resume_state: a replayed :class:`~repro.journal.journal.RepairState`;
            completed stripes are redone from journaled payloads (zero
            survivor reads) and the in-flight stripe restarts from its
            last committed round.
    """

    def __init__(
        self,
        server: HighDensityStorageServer,
        write_back: bool = True,
        policy: Optional[ReadPolicy] = None,
        injector: Optional["FaultInjector"] = None,
        journal: Optional["RepairJournal"] = None,
        resume_state: Optional["RepairState"] = None,
    ) -> None:
        self.server = server
        self.write_back = write_back
        self.policy = policy
        self.injector = injector
        self.journal = journal
        self.resume_state = resume_state
        if injector is not None:
            injector.attach()
        #: Logical repair clock, seconds of modeled transfer + backoff.
        self.clock = 0.0
        if resume_state is not None:
            # Restart where the crashed incarnation stopped; the first
            # _advance_faults() then re-applies every event the previous
            # run already survived (scripted crashes are skipped by the
            # injector's skip budget).
            self.clock = resume_state.clock

    # ------------------------------------------------------------------ reads
    def _advance_faults(self) -> None:
        if self.injector is not None:
            self.injector.advance(self.clock)

    def _transfer_seconds(self, disk, size: int) -> float:
        # Unjittered so the clock is a pure function of state — jitter would
        # consume RNG draws and perturb runs that share the server.
        return disk.transfer_time(size, jittered=False)

    def _read_survivor(
        self,
        stripe: Stripe,
        global_index: int,
        shard_idx: int,
        stats: DataPathStats,
        seen: Set[int],
        forced: bool = False,
    ) -> np.ndarray:
        """One hardened survivor read; advances the clock.

        ``forced`` reads with no timeout, waiting out transient windows —
        the last resort for a slow shard no other survivor can replace.

        Raises:
            ShardFault: dead — disk failed (also while we waited), chunk
                missing or latent sector error; slow — the policy's retries
                are exhausted and hedging is enabled.
        """
        server = self.server
        disk_id = stripe.disks[shard_idx]
        policy = self.policy
        attempt = 0
        while True:
            self._advance_faults()
            disk = server.disk(disk_id)
            if disk.is_failed:
                raise ShardFault(shard_idx, DiskFailedError(f"disk {disk_id} failed"))
            duration = self._transfer_seconds(disk, server.config.chunk_size)
            if forced or policy is None:
                break
            verdict, penalty = policy.decide(duration, attempt)
            if penalty:
                stats.timeouts += 1
                self.clock += penalty
            if verdict == READ_SLOW:
                raise ShardFault(shard_idx)
            if verdict == READ_RETRY:
                stats.retries += 1
                attempt += 1
                continue
            forced = verdict == FORCE
            break
        if forced:
            duration = self._wait_out(disk_id)
            if duration is None:
                raise ShardFault(shard_idx, DiskFailedError(f"disk {disk_id} failed"))
        try:
            data = server.store.get(disk_id, ChunkId(global_index, shard_idx))
        except (LatentSectorError, ChunkNotFoundError) as exc:
            if isinstance(exc, ChunkChecksumError):
                stats.checksum_failures += 1
            raise ShardFault(shard_idx, exc) from None
        self.clock += duration
        disk.record_read(data.size)
        stats.chunks_read += 1
        stats.bytes_read += int(data.size)
        if shard_idx in seen:
            stats.reread_chunks += 1
        seen.add(shard_idx)
        return data

    def _wait_out(self, disk_id: int) -> Optional[float]:
        """Forced read: wait for transient windows to close, then price it.

        The last resort when retries are exhausted and hedging is off (or
        impossible): block until the disk answers. Returns the final read
        duration, or ``None`` if the disk failed while we waited.
        """
        server = self.server
        while True:
            disk = server.disk(disk_id)
            if disk.is_failed:
                return None
            duration = self._transfer_seconds(disk, server.config.chunk_size)
            horizon = (
                self.injector.next_change_time()
                if self.injector is not None
                else math.inf
            )
            if not disk.is_slow or horizon <= self.clock or math.isinf(horizon):
                return duration
            self.clock = horizon
            self._advance_faults()

    # ----------------------------------------------------------------- repair
    def repair(
        self,
        plan: RepairPlan,
        stripe_indices: Sequence[int],
        survivor_ids: Sequence[Sequence[int]],
        failed_disks: Optional[Sequence[int]] = None,
    ) -> DataPathStats:
        """Rebuild every lost chunk of the planned stripes, byte for byte.

        Args:
            plan: the repair plan (column positions reference the
                ``survivor_ids`` rows).
            stripe_indices: global stripe index per plan row.
            survivor_ids: shard ids per (row, column).
            failed_disks: which disks count as lost (default: the server's
                currently failed set).

        Returns:
            Byte-level statistics; rebuilt chunks live on spare disks (and
            the store) afterwards when ``write_back`` is on. Under faults
            (injector or policy configured) ``stats.loss`` carries the
            per-stripe :class:`DataLossReport` — unrecoverable stripes are
            recorded there instead of raising.

        Raises:
            MemoryCapacityError: a round + accumulators exceeded ``c``.
            StorageError / ChunkNotFoundError: survivors are unreadable and
                no fault handling is configured.
        """
        server = self.server
        failed = list(failed_disks) if failed_disks is not None else server.failed_disks()
        if not failed:
            raise StorageError("no failed disks; nothing to rebuild")
        memory = server.memory
        if memory.occupancy:
            raise StorageError(f"repair memory is not empty: {memory!r}")
        hardened = (
            self.policy is not None
            or self.injector is not None
            or self.journal is not None
            or self.resume_state is not None
        )
        stats = DataPathStats()
        if hardened:
            stats.loss = DataLossReport()
        tracer = current_tracer()

        if self.journal is not None and self.resume_state is None and not self.journal.begun:
            self.journal.begin(
                algorithm=plan.algorithm,
                plan=plan.to_dict(),
                stripe_indices=[int(si) for si in stripe_indices],
                survivor_ids=[[int(s) for s in row] for row in survivor_ids],
                failed_disks=[int(d) for d in failed],
                fingerprint=server.config.fingerprint(),
            )
        done = self.resume_state.done if self.resume_state is not None else {}
        inflight = self.resume_state.inflight if self.resume_state is not None else {}

        for sp in plan.stripe_plans:
            row = sp.stripe_index
            global_index = stripe_indices[row]
            stripe = server.layout[global_index]
            shards = list(survivor_ids[row])
            targets = stripe.lost_shards(failed)
            if not targets:
                raise StorageError(
                    f"stripe {global_index} lost nothing on disks {failed}"
                )
            if global_index in done:
                self._replay_stripe(global_index, done[global_index], stats, tracer)
                continue
            with tracer.span("stripe", f"stripe {global_index}",
                             track="datapath", rounds=sp.num_rounds):
                self._repair_stripe(
                    sp, stripe, global_index, shards, targets, stats, tracer,
                    restored=inflight.get(global_index),
                )

        stats.peak_memory_chunks = memory.peak_occupancy
        stats.modeled_seconds = self.clock
        if stats.loss is not None and self.injector is not None:
            for kind, n in self.injector.applied.items():
                stats.loss.count_fault(kind, n)
        self._export_metrics(stats)
        return stats

    # ----------------------------------------------------------- stripe loop
    def _repair_stripe(
        self,
        sp: StripePlan,
        stripe: Stripe,
        global_index: int,
        shards: List[int],
        targets: List[int],
        stats: DataPathStats,
        tracer,
        restored: Optional[Dict[str, object]] = None,
    ) -> None:
        """Drive one stripe's :class:`StripeRepair`: read, fold, write back.

        Rounds are read sequentially and stop at the first fault. Under
        fault handling (``stats.loss`` present) the fault goes to the
        machine's salvage ladder; a run that is fault-free by construction
        surfaces the real error instead.
        """
        server = self.server
        memory = server.memory
        if restored is not None:
            repair = StripeRepair.restore(server.code, restored, sp)
            seen: Set[int] = set(repair.decoder.fed)
            multi_round = not repair.decoder.complete
        else:
            repair = StripeRepair.fresh(
                server.code, shards, targets, sp, server.config.chunk_size
            )
            seen = set()
            multi_round = sp.num_rounds > 1
        acc_held: List[tuple] = []

        def hold_accumulators() -> None:
            # Accumulators stay resident for the rest of the stripe's repair.
            if not acc_held:
                acc_held.extend(("acc", global_index, t) for t in targets)
                for handle in acc_held:
                    memory.admit(handle)

        def read(shard_idx: int, forced: bool = False) -> np.ndarray:
            return self._read_survivor(
                stripe, global_index, shard_idx, stats, seen, forced=forced
            )

        if multi_round:
            hold_accumulators()
        round_index = repair.decoder.rounds_fed
        while rnd := repair.next_round():
            fed: Dict[int, np.ndarray] = {}
            handles: List[tuple] = []
            fault: Optional[ShardFault] = None
            with tracer.span("round", f"stripe {global_index} round {round_index}",
                             track="datapath", chunks=len(rnd)):
                with tracer.span("read", "fetch survivors", track="datapath"):
                    for shard_idx in rnd:
                        try:
                            data = read(shard_idx)
                        except ShardFault as exc:
                            fault = exc
                            break
                        handle = ("xfer", global_index, shard_idx)
                        fed[shard_idx] = memory.admit(handle, data)
                        handles.append(handle)
                # Salvage everything this round read successfully — fold it
                # into the accumulators before the handles go away.
                if fed:
                    with tracer.span("decode", "partial decode", track="datapath"):
                        repair.feed(fed)
                for handle in handles:
                    memory.release(handle)
            if fed and self.journal is not None:
                self.journal.round_commit(
                    global_index, self.clock, repair.decoder.to_state(),
                    outcome=repair.outcome,
                )
            round_index += 1

            while fault is not None:
                if stats.loss is None:
                    raise fault.cause  # plain path: surface the real error
                # Mid-round fault: make sure decoder state can survive
                # further rounds before re-planning the remaining reads.
                if not repair.decoder.complete:
                    hold_accumulators()
                shard = fault.shard
                with tracer.span("replan", f"stripe {global_index} replan",
                                 track="datapath", bad_shard=shard):
                    readable = readable_shards(server, global_index, stripe)
                    verdict = repair.on_fault(fault, readable)
                    if verdict == LOST:
                        tracer.instant("replan", f"stripe {global_index} lost",
                                       readable=len(readable), needed=server.code.k)
                fault = None
                if verdict == FORCE:
                    try:
                        data = read(shard, forced=True)
                    except ShardFault as exc:
                        fault = exc  # died while waiting; handle as dead
                    else:
                        handle = ("xfer", global_index, shard)
                        repair.feed({shard: memory.admit(handle, data)})
                        memory.release(handle)

        repair.fold_into(stats)
        written: Sequence[Tuple[int, int, np.ndarray]] = ()
        if repair.outcome == LOST:
            stats.stripes_lost += 1
        else:
            # Single-round plans decode in place: the accumulator result
            # is materialised only after the round's slots are released.
            written = self._write_back(
                repair.decoder, stripe, global_index, targets, stats
            )
            stats.stripes_repaired += 1
        for handle in acc_held:
            memory.release(handle)
        if stats.loss is not None:
            stats.loss.record(global_index, repair.outcome)
        if self.journal is not None:
            self.journal.stripe_done(global_index, repair.outcome, self.clock, written)

    # ---------------------------------------------------------------- replay
    def _replay_stripe(
        self,
        global_index: int,
        done: "StripeDone",
        stats: DataPathStats,
        tracer,
    ) -> None:
        """Redo a journaled stripe outcome without touching any survivor.

        The journal's ``stripe_done`` record carries the rebuilt payload
        bytes, so replay is a pure write-side redo: re-put any chunk the
        spare is missing (volatile stores lose them across the crash;
        durable stores make this a no-op) and re-record the outcome. Zero
        survivor reads, zero decode work — the crashed run's completed
        rounds stay paid for.
        """
        server = self.server
        stats.resumed_stripes += 1
        with tracer.span("stripe", f"stripe {global_index} replay",
                         track="datapath", replayed=True):
            for target, spare, payload in done.writebacks:
                if payload is None:
                    continue
                cid = ChunkId(global_index, target)
                if self.write_back:
                    if not server.store.contains(spare, cid):
                        server.store.put(spare, cid, payload)
                        stats.replayed_chunks += 1
                    stats.writebacks.append((global_index, target, spare))
                stats.chunks_rebuilt += 1
                stats.bytes_written += int(payload.size) if self.write_back else 0
        if done.outcome == LOST:
            stats.stripes_lost += 1
        else:
            stats.stripes_repaired += 1
        if stats.loss is not None:
            stats.loss.record(global_index, done.outcome)

    # -------------------------------------------------------------- plumbing
    def _write_back(
        self,
        decoder: PartialDecoder,
        stripe: Stripe,
        global_index: int,
        targets: List[int],
        stats: DataPathStats,
    ) -> List[Tuple[int, int, np.ndarray]]:
        server = self.server
        tracer = current_tracer()
        results = decoder.results()
        written: List[Tuple[int, int, np.ndarray]] = []
        # never land two shards of one stripe on the same disk — including
        # two *rebuilt* shards (multi-target cooperative repair).
        exclude = list(stripe.disks)
        with tracer.span("writeback", f"stripe {global_index} writeback",
                         track="datapath", targets=len(targets)):
            for target in targets:
                rebuilt = results[target]
                if self.write_back:
                    spare = server.pick_spare(exclude=exclude)
                    exclude.append(spare)
                    cid = ChunkId(global_index, target)
                    server.store.put(spare, cid, rebuilt)
                    # End-to-end: re-read the landed bytes against the
                    # sidecar before trusting the rebuilt chunk.
                    server.store.verify_chunk(spare, cid)
                    stats.writebacks.append((global_index, target, spare))
                    written.append((target, spare, rebuilt))
                stats.chunks_rebuilt += 1
                stats.bytes_written += int(rebuilt.size) if self.write_back else 0
        return written

    def _export_metrics(self, stats: DataPathStats) -> None:
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
        if stats.loss is None:
            return
        loss = stats.loss
        loss.timeouts += stats.timeouts
        loss.retries += stats.retries
        loss.hedged_reads += stats.hedged_reads
        loss.replans += stats.replans
        loss.fresh_restarts += stats.fresh_restarts
        loss.salvaged_chunks += stats.salvaged_chunks
        loss.reread_chunks += stats.reread_chunks
        loss.checksum_failures += stats.checksum_failures
        loss.resumed_stripes += stats.resumed_stripes
        loss.replayed_chunks += stats.replayed_chunks
        for name, help_text, value in (
            ("hdpsr_read_timeouts_total", "Survivor reads that hit the timeout", stats.timeouts),
            ("hdpsr_read_retries_total", "Survivor read retries after backoff", stats.retries),
            ("hdpsr_hedged_reads_total", "Reads re-planned off a slow disk", stats.hedged_reads),
            ("hdpsr_replans_total", "Mid-repair salvage replans", stats.replans),
            ("hdpsr_fresh_restarts_total", "Salvage-infeasible full restarts", stats.fresh_restarts),
            ("hdpsr_chunks_salvaged_total", "Chunks preserved by salvage replans", stats.salvaged_chunks),
            ("hdpsr_replan_reread_chunks_total", "Chunk reads repeated after faults", stats.reread_chunks),
            ("hdpsr_stripes_lost_total", "Stripes recorded as unrecoverable", stats.stripes_lost),
            ("hdpsr_resume_stripes_replayed_total", "Stripe outcomes replayed from the journal", stats.resumed_stripes),
            ("hdpsr_resume_chunks_redone_total", "Journaled payloads re-put during replay", stats.replayed_chunks),
        ):
            if value:
                registry.counter(name, help_text).inc(value)


__all__ = ["DataPathExecutor", "DataPathStats", "ReadPolicy"]
