"""Threaded wall-clock execution of repair plans.

:class:`WallClockRepairExecutor` is the real-time sibling of the simulated
executors: stripes repair concurrently on worker threads, a
:class:`~repro.core.slot_ledger.SlotLedger` enforces the ``c``-chunk memory
(rounds block for their slots), each round fetches its chunks
in parallel from :class:`~repro.io.pacing.PacedDisk` instances, and
partial sums fold through the incremental decoder. The returned statistic
is *measured elapsed wall time* — real parallelism, not a model.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.plans import RepairPlan
from repro.core.slot_ledger import SlotLedger
from repro.ec.encoder import RSCode
from repro.ec.partial import PartialDecoder
from repro.ec.stripe import ChunkId, StripeLayout
from repro.errors import StorageError
from repro.hdss.store import ChunkStore
from repro.io.pacing import PacedDiskArray
from repro.obs.context import current_registry, current_tracer
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass
class WallClockStats:
    """Measured outcome of a wall-clock repair."""

    elapsed_seconds: float
    stripes_repaired: int
    chunks_read: int
    bytes_read: int
    chunks_rebuilt: int
    peak_memory_chunks: int
    #: rebuilt chunk buffers keyed by (stripe_index, shard_index)
    rebuilt: Dict = field(default_factory=dict, repr=False)


class WallClockRepairExecutor:
    """Run a repair plan with real threads against paced disks.

    Args:
        code: the stripe's RS code.
        layout: stripe placement (maps shards to disks).
        store: chunk byte store (survivor reads come from here).
        disks: the paced disk array providing real-time service.
        memory_chunks: the repair memory capacity ``c``.
        max_concurrent_stripes: admission cap (defaults to the plan's
            ``P_r``, else to as many as the memory can hold).
    """

    def __init__(
        self,
        code: RSCode,
        layout: StripeLayout,
        store: ChunkStore,
        disks: PacedDiskArray,
        memory_chunks: int,
        max_concurrent_stripes: Optional[int] = None,
    ) -> None:
        self.code = code
        self.layout = layout
        self.store = store
        self.disks = disks
        self.memory = SlotLedger(memory_chunks)
        self._freed = threading.Condition()  # guards memory; notified on release
        self.max_concurrent_stripes = max_concurrent_stripes

    def _acquire(self, count: int) -> None:
        """Take ``count`` slots, retrying (first-fit) on every release."""
        with self._freed:
            if not self.memory.try_acquire(count):
                with self.memory.parked():
                    while not self.memory.try_acquire(count):
                        self._freed.wait()

    def _release(self, count: int) -> None:
        with self._freed:
            self.memory.release(count)
            self._freed.notify_all()

    def _repair_stripe(
        self,
        sp,
        global_index: int,
        survivors: Sequence[int],
        targets: Sequence[int],
        io_pool: ThreadPoolExecutor,
        stats_lock: threading.Lock,
        stats: WallClockStats,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        stripe = self.layout[global_index]
        decoder = PartialDecoder(self.code, list(survivors), list(targets))
        # contextvars don't cross thread-pool boundaries: the submitting
        # thread captured the tracer and hands it down; each worker traces
        # onto its own track so concurrent stripes get separate lanes.
        track = threading.current_thread().name

        def fetch(col: int) -> "tuple[int, np.ndarray]":
            shard_idx = survivors[col]
            disk_id = stripe.disks[shard_idx]
            with tracer.span("read", f"chunk ({global_index}, {shard_idx})",
                             track=f"io-{threading.current_thread().name}",
                             disk=disk_id):
                data = self.store.get(disk_id, ChunkId(global_index, shard_idx))
                self.disks[disk_id].read(int(data.size))
            return shard_idx, data

        with tracer.span("stripe", f"stripe {global_index}", track=track,
                         rounds=sp.num_rounds):
            for round_index, rnd in enumerate(sp.rounds):
                with tracer.span("wait", "memory-acquire", track=track,
                                 slots=len(rnd)):
                    self._acquire(len(rnd))
                try:
                    with tracer.span("round", f"stripe {global_index} round {round_index}",
                                     track=track, chunks=len(rnd)):
                        results = list(io_pool.map(fetch, rnd))
                        with tracer.span("decode", "partial decode", track=track):
                            decoder.feed(dict(results))
                    with stats_lock:
                        stats.chunks_read += len(results)
                        stats.bytes_read += sum(int(d.size) for _, d in results)
                finally:
                    self._release(len(rnd))
            rebuilt = decoder.results()
        with stats_lock:
            for target, buf in rebuilt.items():
                stats.rebuilt[(global_index, target)] = buf
                stats.chunks_rebuilt += 1
            stats.stripes_repaired += 1

    def repair(
        self,
        plan: RepairPlan,
        stripe_indices: Sequence[int],
        survivor_ids: Sequence[Sequence[int]],
        failed_disks: Sequence[int],
    ) -> WallClockStats:
        """Execute the plan; blocks until every stripe is rebuilt.

        Returns measured wall-clock stats; rebuilt chunk bytes are in
        ``stats.rebuilt`` for the caller to write back / verify.
        """
        if not plan.stripe_plans:
            raise StorageError("empty plan")
        cap = self.max_concurrent_stripes or plan.pr
        if cap is None:
            widest = max(sp.max_round_size() for sp in plan.stripe_plans)
            cap = max(1, self.memory.capacity // widest)
        cap = max(1, min(cap, len(plan.stripe_plans)))

        stats = WallClockStats(
            elapsed_seconds=0.0, stripes_repaired=0, chunks_read=0,
            bytes_read=0, chunks_rebuilt=0, peak_memory_chunks=0,
        )
        stats_lock = threading.Lock()
        failed = list(failed_disks)
        tracer = current_tracer()

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=max(4, cap * 4), thread_name_prefix="io") as io_pool:
            with ThreadPoolExecutor(max_workers=cap, thread_name_prefix="stripe") as stripe_pool:
                futures = []
                for sp in plan.stripe_plans:
                    global_index = stripe_indices[sp.stripe_index]
                    survivors = list(survivor_ids[sp.stripe_index])
                    targets = self.layout[global_index].lost_shards(failed)
                    if not targets:
                        raise StorageError(f"stripe {global_index} lost nothing")
                    futures.append(
                        stripe_pool.submit(
                            self._repair_stripe, sp, global_index, survivors,
                            targets, io_pool, stats_lock, stats, tracer,
                        )
                    )
                for future in futures:
                    future.result()  # re-raise worker failures
        stats.elapsed_seconds = time.perf_counter() - start
        stats.peak_memory_chunks = self.memory.peak
        registry = current_registry()
        registry.counter(
            "hdpsr_wallclock_repairs_total", "Wall-clock repair executions"
        ).inc()
        registry.counter(
            "hdpsr_wallclock_bytes_read_total", "Bytes read by wall-clock repairs"
        ).inc(stats.bytes_read)
        registry.histogram(
            "hdpsr_wallclock_repair_seconds", "Measured elapsed repair time"
        ).observe(stats.elapsed_seconds)
        return stats
