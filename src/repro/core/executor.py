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

Every survivor read is priced, before it is issued, on the executor's
:class:`~repro.core.stripe_repair.ReadClock` — the same serial logical clock
the daemon prices its reads on. The clock applies the :class:`ReadPolicy`
(timeouts with capped backoff, retries, hedging, and the forced read that
waits transient windows out) and fires a bound
:class:`~repro.faults.injector.FaultInjector`'s schedule at read boundaries.
What happens when a pending survivor dies or crawls mid-stripe — salvage
the partial sums, restart from scratch, or record the stripe as *lost* in a
:class:`~repro.faults.report.DataLossReport`, never an unhandled exception —
is decided by the one :class:`~repro.core.stripe_repair.StripeRepair`
machine; this module only performs its reads and accounts memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.plans import RepairPlan, StripePlan
from repro.core.repair_job import DataPathStats, RepairJob, place
from repro.core.stripe_repair import (
    FORCE,
    ReadClock,
    ReadPolicy,
    ShardFault,
    StripeRepair,
    readable_shards,
)
from repro.ec.stripe import ChunkId, Stripe
from repro.errors import (
    ChunkChecksumError,
    ChunkNotFoundError,
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
        self.journal = journal
        if injector is not None:
            injector.attach()
        #: The logical repair clock every survivor read is priced on; it
        #: holds the policy and the injector.
        self.clock = ReadClock(server, policy, injector)

    # ------------------------------------------------------------------ reads
    def _read_survivor(
        self,
        stripe: Stripe,
        global_index: int,
        shard_idx: int,
        job: RepairJob,
        seen: Set[int],
        forced: bool = False,
    ) -> np.ndarray:
        """One hardened survivor read: price it on the clock, then get it.

        Raises:
            ShardFault: dead — disk failed (also while a forced read
                waited), chunk missing or latent sector error; slow — the
                policy's retries are exhausted and hedging is enabled.
        """
        server = self.server
        stats = job.stats
        disk_id = stripe.disks[shard_idx]
        self.clock.price(disk_id, shard_idx, stats, forced=forced)
        try:
            data = server.store.get(disk_id, ChunkId(global_index, shard_idx))
        except (LatentSectorError, ChunkNotFoundError) as exc:
            if isinstance(exc, ChunkChecksumError):
                stats.checksum_failures += 1
            raise ShardFault(shard_idx, exc) from None
        server.disk(disk_id).record_read(data.size)
        job.count_read(seen, shard_idx, data.size)
        return data

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
        server, clock = self.server, self.clock
        failed = failed_disks if failed_disks is not None else server.failed_disks()
        job = RepairJob(
            plan, stripe_indices, survivor_ids, failed, server.config.fingerprint(),
            hardened=(
                clock.policy is not None
                or clock.injector is not None
                or self.journal is not None
            ),
        )
        self.run(job)
        return job.finish(None, clock.injector, clock.now)

    def run(self, job: RepairJob) -> None:
        """Move ``job``'s bytes: every stripe replayed or repaired.

        Opens the job's journal bracket; committing the placement,
        certification and :meth:`RepairJob.finish` are the caller's.
        """
        server = self.server
        memory = server.memory
        if memory.in_use:
            raise StorageError(f"repair memory is not empty: {memory!r}")
        if job.state is not None:
            # Restart where the crashed incarnation stopped; the first
            # priced read then re-applies every event the previous run
            # already survived (scripted crashes are skipped by the
            # injector's skip budget).
            self.clock.now = job.state.clock
        tracer = current_tracer()
        if self.journal is not None:
            job.open(self.journal)

        for sp, global_index, shards in job.rows():
            stripe = server.layout[global_index]
            targets = job.targets(stripe)
            done = job.replayable(global_index, server.store.contains)
            if done is not None:
                # Zero survivor reads, zero decode work: the crashed run's
                # finished stripes stay paid for.
                with tracer.span("stripe", f"stripe {global_index} replay",
                                 track="datapath", replayed=True):
                    for spare, cid, payload in job.replay_puts(
                        global_index, done, server.store.contains,
                        server.config.chunk_size,
                    ):
                        server.store.put(spare, cid, payload)
                continue
            with tracer.span("stripe", f"stripe {global_index}",
                             track="datapath", rounds=sp.num_rounds):
                self._repair_stripe(
                    job, sp, stripe, global_index, shards, targets, tracer
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
        repair = StripeRepair.fresh(
            server.code, shards, targets, sp, server.config.chunk_size
        )
        seen: Set[int] = set()

        def read(shard_idx: int, forced: bool = False) -> np.ndarray:
            return self._read_survivor(
                stripe, global_index, shard_idx, job, seen, forced=forced
            )

        round_index = 0
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
                global_index, repair.outcome, self.clock.now,
                job.record_writebacks(server.store, written),
            )
        if written:
            with tracer.span("writeback", f"stripe {global_index} writeback",
                             track="datapath", targets=len(targets)):
                for target, spare, payload in written:
                    server.store.put(spare, ChunkId(global_index, target), payload)


__all__ = ["DataPathExecutor", "ReadPolicy"]
