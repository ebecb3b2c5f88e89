"""Wall-clock paced-disk execution: real threads, real elapsed time."""

import threading
import time

import numpy as np
import pytest

from repro.core import ActiveSlowerFirstRepair, FullStripeRepair, RepairContext
from repro.core.repair_job import _disk_id_matrix
from repro.errors import ConfigurationError, DiskFailedError
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import UniformProfile
from repro.io import PacedDisk, PacedDiskArray, WallClockRepairExecutor


class TestPacedDisk:
    def test_service_time(self):
        disk = PacedDisk(0, rate=1000.0)
        assert disk.service_time(500) == pytest.approx(0.5)

    def test_read_blocks_for_duration(self):
        disk = PacedDisk(0, rate=100_000.0)
        t0 = time.perf_counter()
        disk.read(5000)  # 50 ms
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.045
        assert disk.bytes_served == 5000
        assert disk.requests_served == 1

    def test_concurrent_reads_serialise(self):
        disk = PacedDisk(0, rate=100_000.0)
        t0 = time.perf_counter()
        threads = [threading.Thread(target=disk.read, args=(3000,)) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.085  # 3 x 30 ms, serialised

    def test_different_disks_overlap(self):
        disks = [PacedDisk(i, rate=100_000.0) for i in range(3)]
        t0 = time.perf_counter()
        threads = [threading.Thread(target=d.read, args=(5000,)) for d in disks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.14  # ~50 ms in parallel, not 150 ms

    def test_failed_disk_rejects(self):
        disk = PacedDisk(0, rate=1.0)
        disk.fail()
        with pytest.raises(DiskFailedError):
            disk.read(1)

    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            PacedDisk(0, rate=0.0)

    def test_min_latency(self):
        disk = PacedDisk(0, rate=1e12, min_latency=0.02)
        t0 = time.perf_counter()
        disk.read(1)
        assert time.perf_counter() - t0 >= 0.015


class TestPacedDiskArray:
    def test_from_rates(self):
        array = PacedDiskArray.from_rates({0: 100.0, 1: 200.0})
        assert len(array) == 2
        assert array[1].rate == 200.0

    def test_duplicate_rejected(self):
        array = PacedDiskArray.from_rates({0: 100.0})
        with pytest.raises(ConfigurationError):
            array.add(PacedDisk(0, 1.0))

    def test_unknown_disk(self):
        with pytest.raises(ConfigurationError):
            PacedDiskArray()[5]

    def test_from_server_mirrors_bandwidths(self, small_server):
        array = PacedDiskArray.from_server(small_server, time_scale=2.0)
        assert len(array) == len(small_server.disks)
        d = small_server.disks[0]
        assert array[0].rate == pytest.approx(d.current_bandwidth * 2.0)

    def test_from_server_failed_propagates(self, small_server):
        small_server.fail_disk(3, destroy_data=False)
        array = PacedDiskArray.from_server(small_server)
        assert array[3].is_failed


@pytest.fixture
def wallclock_setup():
    """A server where memory competition (not one bottleneck disk) rules.

    Several mildly-slow disks spread the slow reads, so no single spindle's
    service capacity dominates the makespan — the regime where HD-PSR's
    memory scheduling matters and a wall-clock win is measurable.
    """
    cfg = HDSSConfig(
        num_disks=18, n=6, k=4, chunk_size=8 * 1024, memory_chunks=8, spares=2,
        profile=UniformProfile(100e6), placement="random", seed=42,
    )
    server = HighDensityStorageServer(cfg)
    server.provision_stripes(72, with_data=True)
    for d in (1, 2, 5, 7):
        server.degrade_disk(d, 8.0)
    victim = 0
    lost = {
        cid: server.store.get(victim, cid)
        for cid in server.store.chunks_on_disk(victim)
    }
    server.fail_disk(victim)
    # pace to test-friendly wall times: ~100 MB/s sim -> 2 MB/s wall
    disks = PacedDiskArray.from_server(server, time_scale=0.02)
    return server, disks, victim, lost


def run_wallclock(server, disks, victim, algorithm):
    stripe_indices, survivor_ids, L = server.transfer_time_matrix([victim], jittered=False)
    ctx = RepairContext(disk_ids=_disk_id_matrix(server, stripe_indices, survivor_ids))
    plan = algorithm.build_plan(L, server.config.memory_chunks, context=ctx)
    executor = WallClockRepairExecutor(
        server.code, server.layout, server.store, disks,
        memory_chunks=server.config.memory_chunks,
    )
    return executor.repair(plan, stripe_indices, survivor_ids, [victim])


class TestWallClockExecutor:
    def test_rebuilds_byte_exact(self, wallclock_setup):
        server, disks, victim, lost = wallclock_setup
        stats = run_wallclock(server, disks, victim, FullStripeRepair())
        assert stats.chunks_rebuilt == len(lost)
        for cid, original in lost.items():
            rebuilt = stats.rebuilt[(cid.stripe_index, cid.shard_index)]
            assert np.array_equal(rebuilt, original)

    def test_elapsed_is_real_time(self, wallclock_setup):
        server, disks, victim, _ = wallclock_setup
        t0 = time.perf_counter()
        stats = run_wallclock(server, disks, victim, FullStripeRepair())
        outer = time.perf_counter() - t0
        assert 0 < stats.elapsed_seconds <= outer + 0.05

    def test_memory_bound_respected(self, wallclock_setup):
        server, disks, victim, _ = wallclock_setup
        stats = run_wallclock(server, disks, victim, ActiveSlowerFirstRepair())
        assert stats.peak_memory_chunks <= server.config.memory_chunks

    def test_psr_faster_than_fsr_in_wall_time(self, wallclock_setup):
        """The headline claim, measured with a real clock and real threads."""
        server, disks, victim, _ = wallclock_setup
        fsr = run_wallclock(server, disks, victim, FullStripeRepair())
        # fresh pacing for the second run (stats accumulate otherwise)
        disks2 = PacedDiskArray.from_server(server, time_scale=0.02)
        psr = run_wallclock(server, disks2, victim, ActiveSlowerFirstRepair())
        assert psr.chunks_read == fsr.chunks_read
        assert psr.elapsed_seconds < fsr.elapsed_seconds

    def test_reads_accounted_on_paced_disks(self, wallclock_setup):
        server, disks, victim, _ = wallclock_setup
        stats = run_wallclock(server, disks, victim, FullStripeRepair())
        assert disks.total_bytes_served() == stats.bytes_read
