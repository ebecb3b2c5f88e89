"""recover_disk / recover_disks: byte-exact repair through the bounded memory."""

import numpy as np
import pytest

from repro.core import (
    ActivePreliminaryRepair,
    ActiveSlowerFirstRepair,
    FullStripeRepair,
    PassiveRepair,
    recover_disk,
    recover_disks,
)
from repro.ec.stripe import ChunkId
from repro.errors import StorageError
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import BimodalSlowProfile


@pytest.fixture
def server():
    cfg = HDSSConfig(
        num_disks=12, n=6, k=4, chunk_size=8 * 1024, memory_chunks=8, spares=3,
        profile=BimodalSlowProfile(100e6, ros=0.2, slow_factor=4.0), seed=13,
    )
    srv = HighDensityStorageServer(cfg)
    srv.provision_stripes(15, with_data=True)
    return srv


def snapshot_disk(server, disk_id):
    return {
        cid: server.store.get(disk_id, cid)
        for cid in server.store.chunks_on_disk(disk_id)
    }


def run_repair(server, algorithm, failed_disk):
    result = recover_disk(server, algorithm, failed_disk)
    return result.data_path, result.outcome.stripe_indices


@pytest.mark.parametrize(
    "algorithm",
    [FullStripeRepair(), ActivePreliminaryRepair(), ActiveSlowerFirstRepair(), PassiveRepair()],
    ids=["fsr", "ap", "as", "pa"],
)
class TestByteExactRepair:
    def test_rebuilt_bytes_identical(self, server, algorithm):
        lost = snapshot_disk(server, 0)
        server.fail_disk(0)
        stats, _ = run_repair(server, algorithm, 0)
        assert stats.chunks_rebuilt == len(lost)
        for (stripe_idx, shard_idx, spare) in stats.writebacks:
            cid = ChunkId(stripe_idx, shard_idx)
            assert np.array_equal(server.store.get(spare, cid), lost[cid])

    def test_memory_capacity_respected(self, server, algorithm):
        server.fail_disk(0)
        stats, _ = run_repair(server, algorithm, 0)
        assert stats.peak_memory_chunks <= server.config.memory_chunks
        assert server.memory.in_use == 0  # fully drained

    def test_read_accounting(self, server, algorithm):
        server.fail_disk(0)
        stats, stripes = run_repair(server, algorithm, 0)
        k = server.config.k
        assert stats.chunks_read == len(stripes) * k
        assert stats.bytes_read == stats.chunks_read * server.config.chunk_size


class TestExecutorSemantics:
    def test_fsr_peak_is_k(self, server):
        server.fail_disk(0)
        stats, _ = run_repair(server, FullStripeRepair(), 0)
        assert stats.peak_memory_chunks == server.config.k

    def test_psr_peak_below_fsr(self):
        """With small P_a, PSR's data-path footprint < k (pa + accumulator)."""
        cfg = HDSSConfig(
            num_disks=14, n=9, k=6, chunk_size=4 * 1024, memory_chunks=12, spares=2,
            profile=BimodalSlowProfile(100e6, ros=0.3, slow_factor=8.0), seed=3,
        )
        srv = HighDensityStorageServer(cfg)
        srv.provision_stripes(10, with_data=True)
        srv.fail_disk(0)
        stats, _ = run_repair(srv, ActiveSlowerFirstRepair(), 0)
        # AS clamps pa to [2, 3]; footprint = pa + 1 accumulator <= 4 < 6
        assert stats.peak_memory_chunks < srv.config.k

    def test_no_failed_disks_rejected(self, server):
        with pytest.raises(StorageError):
            recover_disks(server, FullStripeRepair(), [])
        with pytest.raises(StorageError):
            recover_disks(server, FullStripeRepair(), [0])  # disk 0 is healthy

    def test_disk_read_telemetry(self, server):
        server.fail_disk(0)
        before = {d.disk_id: d.bytes_read for d in server.disks}
        stats, _ = run_repair(server, FullStripeRepair(), 0)
        total_delta = sum(d.bytes_read - before[d.disk_id] for d in server.disks)
        assert total_delta == stats.bytes_read

    def test_multi_target_cooperative_repair(self):
        """One stripe losing two chunks is rebuilt in a single pass."""
        cfg = HDSSConfig(
            num_disks=8, n=6, k=4, chunk_size=4 * 1024, memory_chunks=10, spares=3,
            seed=21,
        )
        srv = HighDensityStorageServer(cfg)
        srv.provision_stripes(12, with_data=True)
        lost0 = snapshot_disk(srv, 0)
        lost1 = snapshot_disk(srv, 1)
        srv.fail_disk(0)
        srv.fail_disk(1)
        stats = recover_disks(srv, FullStripeRepair(), [0, 1]).data_path
        rebuilt = {(s, t): spare for (s, t, spare) in stats.writebacks}
        for cid, data in {**lost0, **lost1}.items():
            spare = rebuilt[(cid.stripe_index, cid.shard_index)]
            assert np.array_equal(srv.store.get(spare, cid), data)

    def test_dirty_memory_rejected(self, server):
        server.fail_disk(0)
        server.memory.try_acquire(1)
        with pytest.raises(StorageError, match="memory is not empty"):
            recover_disk(server, FullStripeRepair(), 0)
