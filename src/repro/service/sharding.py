"""Bounded, batching async writes in front of the sharded chunk store.

Rebuilt chunks come off decode tasks one at a time, but the store is
fastest when each shard receives contiguous batches (one thread-hop and
one directory's worth of filesystem traffic per batch). The
:class:`AsyncShardWriter` puts a bounded ``asyncio.Queue`` in front of
every shard and drains each queue with its own task that coalesces up to
``batch_size`` chunks into one :meth:`ChunkStore.put_many` call executed
off the event loop.

Backpressure is the queue bound: a repair that rebuilds faster than a
shard can persist blocks in :meth:`put` instead of growing memory without
limit. :meth:`AsyncShardWriter.snapshot` reports the per-shard queue depths
(read by the telemetry plane at scrape time) and per-shard write volume is
counted as batches land, so the service dashboard shows which shard is the
write bottleneck.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ec.stripe import ChunkId
from repro.errors import ConfigurationError, StorageError
from repro.hdss.store import ChunkStore, ShardedChunkStore
from repro.obs.context import current_registry, current_tracer

SHARD_CHUNKS = "hdpsr_service_shard_chunks_written_total"
SHARD_BYTES = "hdpsr_service_shard_bytes_written_total"

_Item = Tuple[int, ChunkId, np.ndarray]


class AsyncShardWriter:
    """Per-shard bounded write queues draining via batched ``put_many``.

    Works with any :class:`ChunkStore`; a :class:`ShardedChunkStore` gets
    one queue+drain task per shard (keyed by ``shard_of(disk_id)``), any
    other store gets a single queue. All writes for one disk land on one
    queue, so per-disk write order is preserved.

    Args:
        store: destination store.
        queue_depth: max chunks buffered per shard before ``put`` blocks.
        batch_size: max chunks handed to one ``put_many`` call.
    """

    def __init__(
        self, store: ChunkStore, queue_depth: int = 64, batch_size: int = 8
    ) -> None:
        if queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be >= 1, got {queue_depth}")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.store = store
        self.batch_size = batch_size
        self._queue_depth = queue_depth
        self._queues: Dict[int, asyncio.Queue] = {}
        self._drains: Dict[int, asyncio.Task] = {}
        self._errors: List[BaseException] = []
        self._closed = False
        #: Chunks accepted by :meth:`put` over the writer's lifetime.
        self.chunks_enqueued = 0

    # ---------------------------------------------------------------- routing
    def _shard_of(self, disk_id: int) -> int:
        if isinstance(self.store, ShardedChunkStore):
            return self.store.shard_of(disk_id)
        return 0

    def _target(self, shard_idx: int) -> ChunkStore:
        if isinstance(self.store, ShardedChunkStore):
            return self.store.shards[shard_idx]
        return self.store

    def _queue(self, shard_idx: int) -> asyncio.Queue:
        q = self._queues.get(shard_idx)
        if q is None:
            q = self._queues[shard_idx] = asyncio.Queue(self._queue_depth)
            self._drains[shard_idx] = asyncio.get_running_loop().create_task(
                self._drain(shard_idx, q)
            )
        return q

    # ----------------------------------------------------------------- public
    def snapshot(self) -> dict:
        """The writer's state right now: lifetime chunks accepted, chunks
        enqueued but not yet persisted (``backlog``), and the same per shard."""
        depths = {shard: q.qsize() for shard, q in sorted(self._queues.items())}
        return {
            "chunks_enqueued": self.chunks_enqueued,
            "backlog": sum(depths.values()),
            "queue_depths": depths,
        }

    async def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        """Enqueue one chunk write; blocks when the shard queue is full."""
        if self._closed:
            raise StorageError("writer is closed")
        self._check_failed()
        shard_idx = self._shard_of(disk_id)
        q = self._queue(shard_idx)
        # A span, not an instant: backpressure (a full shard queue)
        # shows up as enqueue time on the requesting trace.
        with current_tracer().span(
            "writeback", f"enqueue:shard-{shard_idx}", track="writer",
            shard=shard_idx, stripe=chunk_id.stripe_index,
        ):
            await q.put((disk_id, chunk_id, data))
        self.chunks_enqueued += 1

    async def flush(self) -> None:
        """Wait until every enqueued chunk has reached the store."""
        for q in list(self._queues.values()):
            await q.join()
        self._check_failed()

    async def close(self) -> None:
        """Flush, stop the drain tasks, and refuse further writes."""
        if self._closed:
            return
        await self.flush()
        self._closed = True
        for shard_idx, q in self._queues.items():
            q.put_nowait(None)  # sentinel: drain task exits after this
        if self._drains:
            await asyncio.gather(*self._drains.values())
        self._check_failed()

    def abort(self) -> None:
        """Drop queued writes and kill the drain tasks without flushing.

        Emulates the owning process dying mid-repair (the chaos harness's
        ``daemon_crash``): chunks enqueued but not yet persisted vanish,
        exactly as a real SIGKILL would lose them — the journal, which has
        no ``stripe_done`` for them, is what brings them back elsewhere. A
        batch already handed to the store thread may still land; that too
        matches a real crash racing the page cache, and is harmless
        because re-persisting a rebuilt chunk writes identical bytes.
        """
        self._closed = True
        for task in self._drains.values():
            task.cancel()
        self._queues.clear()
        self._drains.clear()

    def _check_failed(self) -> None:
        if self._errors:
            raise StorageError(
                f"shard write failed: {self._errors[0]!r}"
            ) from self._errors[0]

    # ------------------------------------------------------------------ drain
    async def _drain(self, shard_idx: int, q: asyncio.Queue) -> None:
        target = self._target(shard_idx)
        chunks = current_registry().counter(
            SHARD_CHUNKS, "chunks persisted per shard"
        ).labels(shard=str(shard_idx))
        volume = current_registry().counter(
            SHARD_BYTES, "bytes persisted per shard"
        ).labels(shard=str(shard_idx))
        while True:
            item: Optional[_Item] = await q.get()
            if item is None:
                q.task_done()
                return
            batch: List[_Item] = [item]
            while len(batch) < self.batch_size:
                try:
                    nxt = q.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    # keep the sentinel for the outer loop to consume
                    q.task_done()
                    q.put_nowait(None)
                    break
                batch.append(nxt)
            try:
                await asyncio.to_thread(target.put_many, batch)
                chunks.inc(len(batch))
                volume.inc(sum(int(d.size) for (_, _, d) in batch))
            except Exception as exc:  # surfaced on the next put/flush
                self._errors.append(exc)
            finally:
                for _ in batch:
                    q.task_done()
