"""The byte-exact repair data path.

Timing studies use simulated clocks; this module moves the *actual bytes*:
surviving chunks flow from the chunk store, under the server's
:class:`~repro.core.slot_ledger.SlotLedger`, into a
:class:`~repro.ec.partial.PartialDecoder`, and rebuilt chunks are written
back to spare disks. The ledger enforces the capacity ``c`` — a plan whose
rounds over-commit memory fails loudly here, which is how the test suite
proves every algorithm's plans respect the paper's constraint.

Stripes are processed in the plan's admission order. Concurrency is a
timing concern (handled by :mod:`repro.sim`); the data path is sequential,
so each round finds the memory empty and ``memory.peak`` is the widest
round read — one stripe's in-flight transfer buffers.

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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.plans import RepairPlan, StripePlan
from repro.core.repair_job import REPLAY, RESTORE, DataPathStats, RepairJob, place
from repro.core.stripe_repair import (
    FORCE,
    READ_RETRY,
    READ_SLOW,
    ReadPolicy,
    ShardFault,
    StripeRepair,
    readable_shards,
)
from repro.ec.stripe import ChunkId, Stripe
from repro.errors import (
    ChunkChecksumError,
    ChunkNotFoundError,
    DiskFailedError,
    LatentSectorError,
    StorageError,
)
from repro.faults.report import LOST
from repro.hdss.server import HighDensityStorageServer
from repro.obs.context import current_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.journal.journal import RepairJournal


class DataPathExecutor:
    """Executes repair plans against real chunk bytes.

    The sequential driver of one :class:`~repro.core.repair_job.RepairJob`:
    the job says what each stripe needs, this class reads, prices, holds
    memory, writes back and journals per stripe.

    Args:
        server: the storage server to repair.
        policy: read-hardening knobs; ``None`` reads without timeouts.
        injector: a :class:`~repro.faults.injector.FaultInjector` already
            bound to ``server``; its schedule fires as the logical clock
            advances past event times.
        journal: a :class:`~repro.journal.journal.RepairJournal` to log
            progress into — the plan at start, one ``stripe_done`` per
            finished stripe (naming its rebuilt chunks; carrying them only
            over a volatile store).
    """

    def __init__(
        self,
        server: HighDensityStorageServer,
        policy: Optional[ReadPolicy] = None,
        injector: Optional["FaultInjector"] = None,
        journal: Optional["RepairJournal"] = None,
    ) -> None:
        self.server = server
        self.policy = policy
        self.injector = injector
        self.journal = journal
        if injector is not None:
            injector.attach()
        #: Logical repair clock, seconds of modeled transfer + backoff.
        self.clock = 0.0

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
        job: RepairJob,
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
        stats = job.stats
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
        job.count_read(seen, shard_idx, data.size)
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
            the store) afterwards. Under faults (injector, policy or
            journal configured) ``stats.loss`` carries the per-stripe
            :class:`DataLossReport` — unrecoverable stripes are recorded
            there instead of raising.

        Raises:
            MemoryCapacityError: a round exceeded ``c``.
            StorageError / ChunkNotFoundError: survivors are unreadable and
                no fault handling is configured.
        """
        server = self.server
        failed = failed_disks if failed_disks is not None else server.failed_disks()
        job = RepairJob(
            plan, stripe_indices, survivor_ids, failed, server.config.fingerprint(),
            hardened=(
                self.policy is not None
                or self.injector is not None
                or self.journal is not None
            ),
        )
        self.run(job)
        return job.finish(None, self.injector, self.clock)

    def run(self, job: RepairJob) -> None:
        """Move ``job``'s bytes: every stripe replayed, continued or repaired.

        Opens the job's journal bracket; committing the placement,
        certification and :meth:`RepairJob.finish` are the caller's.
        """
        server = self.server
        memory = server.memory
        if memory.in_use:
            raise StorageError(f"repair memory is not empty: {memory!r}")
        if job.state is not None:
            # Restart where the crashed incarnation stopped; the first
            # _advance_faults() then re-applies every event the previous
            # run already survived (scripted crashes are skipped by the
            # injector's skip budget).
            self.clock = job.state.clock
        tracer = current_tracer()
        if self.journal is not None:
            job.open(self.journal)

        for sp, global_index, shards in job.rows():
            stripe = server.layout[global_index]
            targets = job.targets(stripe)
            how, journaled = job.dispatch(global_index, server.store.contains)
            if how == REPLAY:
                # Zero survivor reads, zero decode work: the crashed run's
                # finished stripes stay paid for.
                with tracer.span("stripe", f"stripe {global_index} replay",
                                 track="datapath", replayed=True):
                    for spare, cid, payload in job.replay_puts(
                        global_index, journaled, server.store.contains,
                        server.config.chunk_size,
                    ):
                        server.store.put(spare, cid, payload)
                continue
            with tracer.span("stripe", f"stripe {global_index}",
                             track="datapath", rounds=sp.num_rounds):
                self._repair_stripe(
                    job, sp, stripe, global_index, shards, targets, tracer,
                    restored=journaled if how == RESTORE else None,
                )
        job.stats.peak_memory_chunks = memory.peak

    # ----------------------------------------------------------- stripe loop
    def _repair_stripe(
        self,
        job: RepairJob,
        sp: StripePlan,
        stripe: Stripe,
        global_index: int,
        shards: List[int],
        targets: List[int],
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
        stats = job.stats
        if restored is not None:
            repair = StripeRepair.restore(server.code, restored, sp)
        else:
            repair = StripeRepair.fresh(
                server.code, shards, targets, sp, server.config.chunk_size
            )
        seen: Set[int] = set(repair.decoder.fed)

        def read(shard_idx: int, forced: bool = False) -> np.ndarray:
            return self._read_survivor(
                stripe, global_index, shard_idx, job, seen, forced=forced
            )

        round_index = repair.decoder.rounds_fed
        while rnd := repair.next_round():
            fed: Dict[int, np.ndarray] = {}
            fault: Optional[ShardFault] = None
            memory.acquire(len(rnd))
            try:
                with tracer.span("round", f"stripe {global_index} round {round_index}",
                                 track="datapath", chunks=len(rnd)):
                    with tracer.span("read", "fetch survivors", track="datapath"):
                        for shard_idx in rnd:
                            try:
                                fed[shard_idx] = read(shard_idx)
                            except ShardFault as exc:
                                fault = exc
                                break
                    # Salvage everything this round read successfully.
                    if fed:
                        with tracer.span("decode", "partial decode", track="datapath"):
                            repair.feed(fed)
            finally:
                memory.release(len(rnd))
            round_index += 1

            while fault is not None:
                if stats.loss is None:
                    raise fault.cause  # plain path: surface the real error
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
                    memory.acquire(1)
                    try:
                        repair.feed({shard: read(shard, forced=True)})
                    except ShardFault as exc:
                        fault = exc  # died while waiting; handle as dead
                    finally:
                        memory.release(1)

        repair.fold_into(stats)
        written: List[Tuple[int, int, np.ndarray]] = []
        if repair.outcome != LOST:
            results = repair.decoder.results()
            written = [
                (target, spare, results[target])
                for target, spare in place(stripe, targets, server.pick_spare)
            ]
        job.record(global_index, repair.outcome, written)
        # Record, then put — the service's order (docs/robustness.md, rule 4).
        if self.journal is not None:
            self.journal.stripe_done(
                global_index, repair.outcome, self.clock,
                job.record_writebacks(server.store, written),
            )
        if written:
            with tracer.span("writeback", f"stripe {global_index} writeback",
                             track="datapath", targets=len(targets)):
                for target, spare, payload in written:
                    server.store.put(spare, ChunkId(global_index, target), payload)


__all__ = ["DataPathExecutor", "ReadPolicy"]
