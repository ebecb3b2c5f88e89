"""Performance guardrails: the vectorised hot paths must stay vectorised.

These are generous upper bounds (10x headroom on a slow CI box), meant to
catch an accidental O(s*k) Python loop sneaking into a kernel, not to
benchmark.
"""

import time
import tracemalloc

import numpy as np

from repro.core import ActivePreliminaryRepair, ActiveSlowerFirstRepair, FullStripeRepair, execute_plan
from repro.ec.stripe import ChunkId
from repro.gf import gf_mul_add_scalar, gf_mul_scalar
from repro.utils.checksum import _crc32c_numpy, _crc32c_sliced
from repro.utils.units import MiB
from repro.workloads import normal_transfer_times


def elapsed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def best_of(n, fn, *args, **kwargs):
    """Best-of-n wall time: robust to CI hosts with noisy neighbours."""
    return min(elapsed(fn, *args, **kwargs) for _ in range(n))


def gather_baseline(buf: np.ndarray) -> float:
    """Measured cost of one raw 256-entry ``np.take`` gather over ``buf``.

    The GF chunk kernels do one pass of per-byte table lookups over
    ``buf`` (a ``bytes.translate``) plus a copy and an XOR, so bounding
    them as a *ratio* of this baseline calibrates the guard to the host
    instead of hard-coding wall-clock seconds (which fails on slow or
    heavily loaded CI machines).
    """
    table = np.arange(256, dtype=np.uint8)
    return best_of(3, np.take, table, buf)


class TestSelectionScaling:
    def test_ap_select_10k_stripes_under_a_second(self):
        L = normal_transfer_times(10_000, 14, ros=0.08, seed=0).L
        algo = ActivePreliminaryRepair()
        assert elapsed(algo.select, L, 28) < 1.0

    def test_as_select_10k_stripes_under_100ms(self):
        L = normal_transfer_times(10_000, 14, ros=0.08, seed=0).L
        algo = ActiveSlowerFirstRepair()
        assert elapsed(algo.select, L, 28, 2.0 * float(L.mean())) < 0.1


class TestCodecThroughput:
    """GF kernels must stay within a small constant factor of one raw
    table gather on the same buffer — the bound is measured per host, so
    a loaded CI box moves the baseline and the kernel together, while an
    accidental Python loop (thousands of times slower) still fails."""

    # One translate (plus a copy) for the multiply, translate+xor for the
    # FMA; 10x covers the copies plus scheduler noise. The absolute floor
    # absorbs timer jitter when the baseline itself is microscopic.
    RATIO = 10.0
    FLOOR_SECONDS = 0.25

    def test_gf_kernel_throughput(self):
        """A 16 MiB chunk-scalar multiply must run at table-gather speed."""
        rng = np.random.default_rng(0)
        buf = rng.integers(0, 256, size=16 * MiB, dtype=np.uint8)
        baseline = gather_baseline(buf)
        t = best_of(3, gf_mul_scalar, 37, buf)
        assert t < max(self.RATIO * baseline, self.FLOOR_SECONDS)

    def test_gf_fma_in_place(self):
        rng = np.random.default_rng(1)
        acc = rng.integers(0, 256, size=16 * MiB, dtype=np.uint8)
        buf = rng.integers(0, 256, size=16 * MiB, dtype=np.uint8)
        baseline = gather_baseline(buf)
        t = best_of(3, gf_mul_add_scalar, acc, 99, buf)
        assert t < max(self.RATIO * baseline, self.FLOOR_SECONDS)


class TestCodecMemory:
    """The chunk kernels allocate about two buffers' worth, not an 8-byte
    index per byte: an ``np.take`` gather over ``buf`` peaked at 9x."""

    LIMIT = 3.0

    def _peak_ratio(self, fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / args[-1].nbytes

    def test_kernels_peak_under_three_buffers(self):
        rng = np.random.default_rng(4)
        buf = rng.integers(0, 256, size=16 * MiB, dtype=np.uint8)
        acc = rng.integers(0, 256, size=16 * MiB, dtype=np.uint8)
        assert self._peak_ratio(gf_mul_add_scalar, acc, 0x1D, buf) <= self.LIMIT
        assert self._peak_ratio(gf_mul_scalar, 0x1D, buf) <= self.LIMIT


class TestChecksumThroughput:
    def test_crc32c_bulk_path_beats_scalar_loop(self):
        """The NumPy kernel must be >= 5x the scalar sliced loop timed
        beside it on a 64 KiB chunk and >= 4x on a 16 KiB one (measured:
        15-16x and 9-10x; the 4-byte-word leaf it replaced read 3x, so a
        silent fall back to that, or to the interpreter loop, fails here
        and not only in the e2e benchmark). Same-test ratios: a loaded box
        moves both sides."""
        rng = np.random.default_rng(2)
        for size, ratio in ((64 * 1024, 5.0), (16 * 1024, 4.0)):
            buf = rng.integers(0, 256, size=size, dtype=np.uint8)
            assert _crc32c_numpy(buf, 0) == _crc32c_sliced(buf)  # also warms the tables
            scalar = best_of(3, _crc32c_sliced, buf)
            bulk = best_of(3, _crc32c_numpy, buf, 0)
            assert bulk * ratio <= scalar, (size, scalar / bulk)


class TestSimulatorScaling:
    def test_slot_sim_3200_stripes(self):
        """Full paper scale (200 GiB / 64 MiB) in single-digit seconds."""
        L = normal_transfer_times(3200, 10, ros=0.08, seed=2).L
        plan = FullStripeRepair().build_plan(L, 20)
        assert elapsed(execute_plan, plan, L, 20) < 10.0

    def test_interval_sim_is_fast(self):
        from repro.core.scheduler import ExecutionOptions

        L = normal_transfer_times(3200, 10, ros=0.08, seed=3).L
        plan = FullStripeRepair().build_plan(L, 20)
        assert elapsed(
            execute_plan, plan, L, 20, options=ExecutionOptions(model="interval")
        ) < 3.0


class TestWorkerHandoffs:
    """The daemon's thread hand-offs, in counts, not timings. A chunk read
    the page cache answers (``get_cached``) runs on the event loop, and so
    does the fold of a round whose reads all did; any other round is one
    worker call (reads, digest checks and the fold together). A stripe's
    record and its puts are one call. A degraded read over a store with no
    cached read is one call. Over a store whose reads wait on a device, a
    round's reads still overlap."""

    @staticmethod
    def count_handoffs(monkeypatch, module="repro.service.service"):
        """Every ``asyncio.to_thread`` call made from ``module``."""
        import asyncio
        import sys

        calls = []
        real = asyncio.to_thread

        def to_thread(fn, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == module:
                calls.append(fn)
            return real(fn, *args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", to_thread)
        return calls

    def test_a_round_is_one_call(self, tmp_path, monkeypatch):
        """The benchmark's 16 KiB shape, repaired over file shards, every
        chunk in the page cache: per stripe, one call for its record and
        its puts; per job, plan and certify. The rounds make none."""
        import asyncio

        from repro.core import ALGORITHMS
        from repro.hdss.store import ShardedChunkStore
        from repro.service import RepairService, ServiceConfig
        from repro.workloads import build_exp_server

        chunk = 16 * 1024
        server = build_exp_server(
            n=9, k=6, disk_size=27 * chunk, chunk_size=chunk, num_disks=12,
            seed=51, placement="rotating", with_data=True,
            store=ShardedChunkStore.from_root(tmp_path / "store", durable=False),
        )
        server.fail_disk(0)
        service = RepairService(server, ALGORITHMS["hd-psr-ap"](), ServiceConfig(
            journal_root=tmp_path / "journal", durable_journal=False,
        ))
        calls = self.count_handoffs(monkeypatch)

        async def run():
            result = await service.submit_repair(0).wait()
            await service.close()
            return result

        assert asyncio.run(run()).certified
        rows = list(service._jobs[0].rows())
        assert len(rows) == 27
        assert len(calls) == len(rows) + 2 == 29  # was 110, and 299 before

    def test_a_degraded_read_is_one_call(self, monkeypatch):
        import asyncio

        from repro.service.chaos_rig import build_server, build_service

        server = build_server()
        si, shard = 0, 1
        server.fail_disk(server.layout[si].disks[shard])
        service = build_service(server)
        calls = self.count_handoffs(monkeypatch)
        asyncio.run(service.read_chunk(si, shard))
        assert len(calls) == 1  # was k + 1: one per survivor get, then the fold

    def test_overlapping_reads_keep_a_round_in_flight_together(self):
        """Over ``PacedStore`` the round's ``get``s are in flight at once —
        as many as the round is wide; over a store whose reads do not
        overlap, one call makes them one after another."""
        import asyncio
        import threading

        from repro.hdss.store import ForwardingChunkStore, InMemoryChunkStore
        from repro.service.chaos_rig import PacedStore, build_server, build_service

        class InFlight(ForwardingChunkStore):
            def __init__(self, inner):
                super().__init__(inner)
                self.lock = threading.Lock()
                self.now = self.peak = 0

            def get(self, disk_id, chunk_id):
                with self.lock:
                    self.now += 1
                    self.peak = max(self.peak, self.now)
                try:
                    return self.inner.get(disk_id, chunk_id)
                finally:
                    with self.lock:
                        self.now -= 1

        class Fused(PacedStore):
            reads_overlap = False

        async def repair(service):
            return await service.submit_repair(0).wait()

        peaks = {}
        for slow in (PacedStore, Fused):
            store = InFlight(slow(InMemoryChunkStore(), latency_s=0.05))
            server = build_server(store)
            server.fail_disk(0)
            service = build_service(server, max_concurrent_stripes=1)
            assert asyncio.run(repair(service)).certified
            width = max(
                len(rnd) for sp, _, _ in service._jobs[0].rows() for rnd in sp.rounds
            )
            peaks[store.reads_overlap] = store.peak
        assert width > 1 and peaks == {True: width, False: 1}


class TestCachedReads:
    """A chunk read the page cache answers runs on the event loop, over
    file shards; anything else takes the worker path it always took, and no
    byte that failed a verify is served."""

    CHUNK = 16 * 1024

    def service(self, tmp_path, chunk=CHUNK, faulty=False):
        from repro.core import ALGORITHMS
        from repro.hdss.store import FaultyChunkStore, ShardedChunkStore
        from repro.service import RepairService, ServiceConfig
        from repro.workloads import build_exp_server

        store = ShardedChunkStore.from_root(tmp_path / "store", durable=False)
        server = build_exp_server(
            n=9, k=6, disk_size=3 * chunk, chunk_size=chunk, num_disks=12,
            seed=51, placement="rotating", with_data=True,
            store=FaultyChunkStore(store) if faulty else store,
        )
        return RepairService(server, ALGORITHMS["hd-psr-ap"](), ServiceConfig())

    def read(self, service, si, shard, monkeypatch):
        """``read_chunk``'s bytes, its hand-offs and its reads by path."""
        import asyncio

        from repro.obs import MetricsRegistry, use_registry
        from repro.service.service import CHUNK_READS

        with use_registry(MetricsRegistry()) as registry:
            calls = TestWorkerHandoffs.count_handoffs(monkeypatch)
            data = asyncio.run(service.read_chunk(si, shard))
        monkeypatch.undo()
        reads = registry.get(CHUNK_READS)
        return data, len(calls), {p: reads.labels(path=p).value for p in ("loop", "worker")}

    def expected(self, service, si, shard):
        stripe = service.server.layout[si]
        return service.server.store.get(stripe.disks[shard], ChunkId(si, shard))

    def test_cached_healthy_and_degraded_reads_make_no_handoff(
        self, tmp_path, monkeypatch
    ):
        service = self.service(tmp_path)
        want = self.expected(service, 0, 1)
        data, handoffs, by_path = self.read(service, 0, 1, monkeypatch)
        assert np.array_equal(data, want)
        assert handoffs == 0 and by_path == {"loop": 1, "worker": 0}
        service.server.fail_disk(service.server.layout[0].disks[1])
        data, handoffs, by_path = self.read(service, 0, 1, monkeypatch)
        assert np.array_equal(data, want)
        assert handoffs == 0 and by_path == {"loop": 6, "worker": 0}  # k survivors

    def test_an_uncached_read_falls_back_to_one_handoff(self, tmp_path, monkeypatch):
        import os

        service = self.service(tmp_path)
        want = self.expected(service, 0, 1)
        tried = []

        def would_block(*args):
            tried.append(args[0])
            raise BlockingIOError(11, "Resource temporarily unavailable")

        for fail in (False, True):
            if fail:
                service.server.fail_disk(service.server.layout[0].disks[1])
            tried.clear()
            monkeypatch.setattr(os, "preadv", would_block)
            data, handoffs, by_path = self.read(service, 0, 1, monkeypatch)
            assert np.array_equal(data, want)
            # The first read would block, so it and the rest of the round
            # are the worker's: one try on the loop, one hand-off.
            assert len(tried) == 1 and handoffs == 1
            assert by_path == {"loop": 0, "worker": 6 if fail else 1}

    def test_a_flipped_byte_is_never_served(self, tmp_path):
        import asyncio

        from repro.obs import MetricsRegistry, use_registry
        from repro.service.service import CORRUPT_FOUND

        service = self.service(tmp_path)
        disk = service.server.layout[0].disks[1]
        want = self.expected(service, 0, 1)
        (path,) = (tmp_path / "store").rglob(f"disk-{disk:03d}/s000000.001.chunk")
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0x01
        path.write_bytes(bytes(raw))
        store = service.server.store
        assert store.get_cached(disk, ChunkId(0, 1)) is None
        assert store.checksum_failures == 0  # the loop's try counts nothing

        async def read():
            data = await service.read_chunk(0, 1)
            spawned = len(service._chunk_repairs)
            await service.close()
            return data, spawned

        with use_registry(MetricsRegistry()) as registry:
            data, spawned = asyncio.run(read())
            found = registry.get(CORRUPT_FOUND).labels(source="foreground").value
        assert np.array_equal(data, want)  # decoded, not the flipped bytes
        assert store.checksum_failures == 1 and found == 1 and spawned == 1
        assert np.array_equal(store.get(disk, ChunkId(0, 1)), want)  # read-repaired

    def test_a_chunk_above_the_bound_takes_one_handoff(self, tmp_path, monkeypatch):
        from repro.hdss.store import CACHED_READ_MAX_BYTES

        service = self.service(tmp_path, chunk=2 * CACHED_READ_MAX_BYTES)
        want = self.expected(service, 0, 1)
        data, handoffs, by_path = self.read(service, 0, 1, monkeypatch)
        assert np.array_equal(data, want)
        assert handoffs == 1 and by_path == {"loop": 0, "worker": 1}

    def test_a_decorated_file_store_keeps_its_get(self, tmp_path, monkeypatch):
        """A latent sector error a ``FaultyChunkStore`` injects over file
        shards still raises, so the read degrades; every read of the
        decorated store is its ``get`` in a worker."""
        import pytest

        from repro.errors import LatentSectorError

        service = self.service(tmp_path, faulty=True)
        store, disk = service.server.store, service.server.layout[0].disks[1]
        want = self.expected(service, 0, 1)
        store.mark_bad(disk, ChunkId(0, 1))
        with pytest.raises(LatentSectorError):
            store.get(disk, ChunkId(0, 1))
        assert store.get_cached(disk, ChunkId(0, 2)) is None
        data, handoffs, by_path = self.read(service, 0, 1, monkeypatch)
        assert np.array_equal(data, want)
        assert handoffs == 1 and by_path == {"loop": 0, "worker": 6}  # the decode

    def test_a_cached_healthy_read_asks_no_stat_and_never_waits(
        self, tmp_path, monkeypatch
    ):
        """The store is asked whether a chunk is there only when the page
        cache cannot answer, and a free gate slot is taken without a
        suspension."""
        import asyncio
        import os

        import pytest

        from repro.hdss.store import FileChunkStore
        from repro.service.admission import DiskGate

        service = self.service(tmp_path)
        want = self.expected(service, 0, 1)
        disk = service.server.layout[0].disks[1]
        asked, waits = [], []
        real_stat, real_readable = os.stat, FileChunkStore.is_readable
        real_wait = DiskGate._wait

        def stat(path, *args, **kwargs):
            if str(path).endswith(".chunk"):  # not asyncio debug's own stats
                asked.append("stat")
            return real_stat(path, *args, **kwargs)

        def is_readable(store, disk_id, chunk_id):
            asked.append("is_readable")
            return real_readable(store, disk_id, chunk_id)

        def wait(*args):
            waits.append(args)
            return real_wait(*args)

        def patch():
            monkeypatch.setattr(os, "stat", stat)
            monkeypatch.setattr(FileChunkStore, "is_readable", is_readable)
            monkeypatch.setattr(DiskGate, "_wait", staticmethod(wait))

        patch()
        data, handoffs, by_path = self.read(service, 0, 1, monkeypatch)
        assert np.array_equal(data, want)
        assert asked == [] and waits == [] and handoffs == 0
        assert by_path == {"loop": 1, "worker": 0}
        # An uncontended acquire finishes at its first step: no suspension.
        with pytest.raises(StopIteration):
            service.gate.acquire(disk, foreground=True).send(None)
        service.gate.release(disk)
        patch()
        asyncio.run(service.read_chunk(0, 1))
        assert asked == [] and waits == []

    def test_a_chunk_missing_from_a_file_store_degrades(self, tmp_path, monkeypatch):
        """A healthy disk's chunk that is not there: the cache answers None,
        ``is_readable`` says no, and the read decodes the right bytes."""
        service = self.service(tmp_path)
        want = self.expected(service, 0, 1)
        disk = service.server.layout[0].disks[1]
        service.server.store.delete(disk, ChunkId(0, 1))
        data, handoffs, by_path = self.read(service, 0, 1, monkeypatch)
        assert np.array_equal(data, want)
        assert handoffs == 0 and by_path == {"loop": 6, "worker": 0}  # k survivors

    def test_background_never_overtakes_a_queued_foreground_read(self, tmp_path):
        """Both slots held, a front-door read queues; a released slot passes
        to it, so a background admission that arrives before the read has
        even resumed queues behind it."""
        import asyncio

        service = self.service(tmp_path)
        want = self.expected(service, 0, 1)
        gate, disk = service.gate, service.server.layout[0].disks[1]
        done = []

        async def run():
            for _ in range(gate.width):
                await gate.acquire(disk)
            read = asyncio.ensure_future(service.read_chunk(0, 1))
            read.add_done_callback(lambda _: done.append("foreground"))
            while not gate.queue_depth(disk):
                await asyncio.sleep(0)
            gate.release(disk)  # handed to the queued foreground read
            background = asyncio.ensure_future(gate.acquire(disk))
            background.add_done_callback(lambda _: done.append("background"))
            await asyncio.sleep(0)
            assert gate.depths()[disk]["waiting_background"] == 1
            data = await read
            await background
            return data

        assert np.array_equal(asyncio.run(run()), want)
        assert done == ["foreground", "background"]
        assert gate.depths()[disk]["inflight"] == gate.width

    def test_each_registry_counts_only_its_own_reads(self, tmp_path, monkeypatch):
        """The read path resolves its labelled series once per registry: a
        registry installed with ``use_registry`` after another gets series
        of its own, not the first one's."""
        import asyncio

        from repro.obs import MetricsRegistry, use_registry
        from repro.service.service import CHUNK_READS, FOREGROUND_READS, READ_LATENCY

        service = self.service(tmp_path)
        registries = [MetricsRegistry(), MetricsRegistry()]
        for registry, reads in zip(registries, (1, 2)):
            with use_registry(registry):
                for _ in range(reads):
                    asyncio.run(service.read_chunk(0, 1))
        counts = [
            (
                r.get(CHUNK_READS).labels(path="loop").value,
                r.get(FOREGROUND_READS).value,
                r.get(READ_LATENCY).labels(path="healthy").count,
            )
            for r in registries
        ]
        assert counts == [(1, 1, 1), (2, 2, 2)]


class TestScrubHandoffs:
    """The scrub walk's thread hand-offs, in counts: one clean cycle over
    the chaos geometry (15 disks, 50 chunks) on durable-off file shards,
    every chunk in the page cache. A cycle lists its disks in one call and
    verifies cached chunks on the event loop, at any pace; when runs were
    worker calls, a cycle cost 15 calls unpaced (one a disk) and 65 paced
    (one a chunk, plus a listing a disk)."""

    DISKS, CHUNKS = 15, 50

    def cycle(self, tmp_path, monkeypatch, interval_ms, journal=False):
        import asyncio

        from repro.hdss.store import ShardedChunkStore
        from repro.service.scrub import ScrubConfig, Scrubber
        from repro.service.chaos_rig import build_server, build_service

        store = ShardedChunkStore.from_root(tmp_path / "store", durable=False)
        service = build_service(build_server(store, stripes=10, chunk_size=1024))
        scrub = Scrubber(service, ScrubConfig(
            interval_ms=interval_ms, cycle_pause_s=0.0,
            journal_root=tmp_path / "cursor" if journal else None,
            durable_journal=False,
        ))
        calls = TestWorkerHandoffs.count_handoffs(monkeypatch, "repro.service.scrub")

        async def run():
            verified = await scrub.run_cycle()
            await scrub.stop()
            await service.close()
            return verified

        assert asyncio.run(run()) == self.CHUNKS
        assert len(service.server.disks) == self.DISKS
        self.holding = sum(1 for d in range(self.DISKS) if store.chunks_on_disk(d))
        return calls

    def test_an_unpaced_cycle_is_one_call(self, tmp_path, monkeypatch):
        assert len(self.cycle(tmp_path, monkeypatch, 0.0)) == 1  # the listing

    def test_a_paced_cycle_is_one_call(self, tmp_path, monkeypatch):
        assert len(self.cycle(tmp_path, monkeypatch, 0.01)) == 1

    def test_each_cursor_commit_is_one_call(self, tmp_path, monkeypatch):
        """The cycle's one commit, at ``cycle_done``: ``cycle_begin`` and
        each ``disk_done`` are flushed on the loop, with no call."""
        calls = self.cycle(tmp_path, monkeypatch, 0.0, journal=True)
        assert len(calls) == 2  # the listing and the commit

    def test_an_uncached_run_is_one_call(self, tmp_path, monkeypatch):
        """Chunks over the cached-read bound: each disk's first chunk falls
        back to one worker call, which verifies the rest of the disk."""
        from repro.hdss import store as store_module

        monkeypatch.setattr(store_module, "CACHED_READ_MAX_BYTES", 512)
        calls = self.cycle(tmp_path, monkeypatch, 0.0)
        assert 0 < self.holding < self.DISKS  # a spare holds none: no call
        assert len(calls) == 1 + self.holding


class TestWritePathCounts:
    """The repair write path in counts, not timings: what one journaled,
    fsync'd, file-store repair of ``N`` chunks costs beyond reading the
    survivors — exact for both entry points, whatever ``N`` is: one fsync per
    put, one per spare directory the job wrote to, one of the store root
    for those directories' entries (they are new), the journal's few."""

    K, CHUNK = 6, 32 * 1024
    #: The journal's own fsyncs, per job: the segment's directory entry,
    #: ``begin``, ``complete`` and the close. None per stripe.
    JOURNAL_FSYNCS = 4

    def repair(self, tmp_path, driver, stripes, monkeypatch):
        import asyncio
        import os

        from repro.core import ALGORITHMS, recover_disk
        from repro.hdss import store as store_module
        from repro.hdss.server import HDSSConfig, HighDensityStorageServer
        from repro.hdss.store import FileChunkStore
        from repro.journal import wal as wal_module
        from repro.service import RepairService, ServiceConfig

        server = HighDensityStorageServer(
            HDSSConfig(
                num_disks=12, n=9, k=self.K, chunk_size=self.CHUNK,
                memory_chunks=12, spares=3, seed=5, placement="rotating",
            ),
            store=FileChunkStore(tmp_path / "store", durable=True),
        )
        server.provision_stripes(stripes, with_data=True)
        rebuilt = len(server.layout.stripe_set(0))
        server.fail_disk(0)

        counts = {"fsync": 0, "store": 0, "store_bytes": 0, "wal": 0, "wal_bytes": 0}
        real_fsync = os.fsync

        def fsync(fd):
            counts["fsync"] += 1
            real_fsync(fd)

        def counting(module, name, key):
            real = getattr(module, name)

            def hashed(data, *rest):
                counts[key + "_bytes"] += len(data)
                counts[key] += 1
                return real(data, *rest)

            monkeypatch.setattr(module, name, hashed)

        monkeypatch.setattr(os, "fsync", fsync)
        counting(store_module, "chunk_digest", "store")
        counting(wal_module, "crc32c", "wal")
        journal = tmp_path / "journal" / "disk-000"
        if driver == "recover_disk":
            result = recover_disk(server, ALGORITHMS["hd-psr-ap"](), 0, journal=journal)
        else:
            async def run():
                service = RepairService(
                    server, ALGORITHMS["hd-psr-ap"](),
                    ServiceConfig(journal_root=tmp_path / "journal"),
                )
                try:
                    return await service.submit_repair(0).wait()
                finally:
                    await service.close()

            result = asyncio.run(run())
        monkeypatch.undo()
        assert result.certified
        counts["dirs"] = sum(
            (tmp_path / "store" / f"disk-{spare:03d}").is_dir()
            for spare in server.spare_disk_ids
        )
        return rebuilt, counts, journal

    def test_fsyncs_hashes_and_journal_bytes_per_chunk(
        self, tmp_path, monkeypatch
    ):
        from repro.journal.wal import WALReader

        for driver in ("recover_disk", "service"):
            for stripes in (8, 16):
                root = tmp_path / f"{driver}-{stripes}"
                n, counts, journal = self.repair(root, driver, stripes, monkeypatch)
                assert n >= 4
                rebuilt_bytes = n * self.CHUNK
                # the chunk file per put; each spare directory once, and the
                # root once for them, at the job's sync; the journal's fixed
                # few; nothing per round, nothing per record
                assert 1 <= counts["dirs"] <= 3
                assert counts["fsync"] == n + counts["dirs"] + 1 + self.JOURNAL_FSYNCS, (
                    driver, stripes,
                )
                # k survivor reads + the put's trailer + certify's verify
                assert counts["store_bytes"] == (self.K + 2) * rebuilt_bytes
                assert counts["store"] == (self.K + 2) * n
                # the journal hashes its record headers and not one chunk byte
                records = list(WALReader(journal))
                assert len(records) == n + 2 and not any(r.blobs for r in records)
                on_disk = sum(p.stat().st_size for p in journal.iterdir())
                assert counts["wal_bytes"] == on_disk - 16 * len(records)
                assert counts["wal"] == 2 * len(records)
                assert on_disk < 0.05 * rebuilt_bytes, (driver, stripes, on_disk)
