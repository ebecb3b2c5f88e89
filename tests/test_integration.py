"""End-to-end integration: full recovery stories across the whole stack."""

import numpy as np
import pytest

from repro import (
    ActivePreliminaryRepair,
    ActiveSlowerFirstRepair,
    FileChunkStore,
    FullStripeRepair,
    HDSSConfig,
    HighDensityStorageServer,
    PassiveRepair,
    build_exp_server,
    cooperative_multi_disk_repair,
    naive_multi_disk_repair,
    recover_disk,
    repair_single_disk,
)
from repro.ec.stripe import ChunkId
from repro.hdss.profiles import BimodalSlowProfile


class TestSingleDiskStory:
    """The paper's headline scenario on a scaled-down server."""

    @pytest.fixture
    def server(self):
        return build_exp_server(
            n=9, k=6, disk_size="512MiB", chunk_size="32MiB",
            num_disks=36, ros=0.1, slow_factor=4.0, seed=17,
        )

    def test_all_schemes_beat_or_match_fsr(self, server):
        server.fail_disk(0)
        fsr = repair_single_disk(server, FullStripeRepair(), 0)
        results = {
            "hd-psr-ap": repair_single_disk(server, ActivePreliminaryRepair(), 0),
            "hd-psr-as": repair_single_disk(server, ActiveSlowerFirstRepair(), 0),
            "hd-psr-pa": repair_single_disk(server, PassiveRepair(), 0),
        }
        for name, out in results.items():
            assert out.transfer_time <= fsr.transfer_time * 1.05, name

    def test_same_chunks_read(self, server):
        server.fail_disk(0)
        reads = {
            algo.name: repair_single_disk(server, algo, 0).chunks_read
            for algo in (FullStripeRepair(), ActivePreliminaryRepair(), PassiveRepair())
        }
        assert len(set(reads.values())) == 1  # no scheme reads extra chunks


class TestObjectDurability:
    """Objects survive a disk failure + repair, byte for byte."""

    def test_object_readable_after_repair(self):
        cfg = HDSSConfig(
            num_disks=10, n=6, k=4, chunk_size=16 * 1024, memory_chunks=8, spares=2,
            seed=5,
        )
        server = HighDensityStorageServer(cfg)
        rng = np.random.default_rng(0)
        objects = {}
        for i in range(8):
            data = rng.integers(0, 256, size=int(rng.integers(1000, 60_000)), dtype=np.uint8).tobytes()
            stripe = server.write_object(data)
            objects[stripe.index] = data

        victim = server.layout[0].disks[0]
        server.fail_disk(victim)

        # repair through the data path
        recover_disk(server, FullStripeRepair(), victim)

        # every object still reads back exactly (degraded or repaired)
        for idx, data in objects.items():
            assert server.read_object(idx) == data


class TestFileStoreEndToEnd:
    """The paper's directory-per-disk layout with real files on disk."""

    def test_full_cycle_on_files(self, tmp_path):
        cfg = HDSSConfig(
            num_disks=8, n=5, k=3, chunk_size=4 * 1024, memory_chunks=6, spares=2,
            seed=3,
        )
        server = HighDensityStorageServer(cfg, store=FileChunkStore(tmp_path))
        server.provision_stripes(6, with_data=True)

        victim = 2
        lost = {
            cid: server.store.get(victim, cid)
            for cid in server.store.chunks_on_disk(victim)
        }
        assert lost
        server.fail_disk(victim)
        assert server.store.chunks_on_disk(victim) == []

        stats = recover_disk(server, ActiveSlowerFirstRepair(), victim).data_path

        assert stats.chunks_rebuilt == len(lost)
        for (si, shard, spare) in stats.writebacks:
            cid = ChunkId(si, shard)
            assert np.array_equal(server.store.get(spare, cid), lost[cid])
        # files physically exist under the spare's directory
        spare_dirs = list(tmp_path.glob("disk-*"))
        assert any(p.name == f"disk-{stats.writebacks[0][2]:03d}" for p in spare_dirs)


class TestMultiDiskStory:
    def test_three_disk_recovery_with_cooperation(self):
        cfg = HDSSConfig(
            num_disks=20, n=14, k=10, chunk_size=64 * 1024, memory_chunks=20,
            spares=4, profile=BimodalSlowProfile(100e6, ros=0.1, slow_factor=4.0),
            seed=8,
        )
        server = HighDensityStorageServer(cfg)
        server.provision_stripes(50)
        for d in (0, 1, 2):
            server.fail_disk(d)
        naive = naive_multi_disk_repair(server, ActiveSlowerFirstRepair, [0, 1, 2])
        coop = cooperative_multi_disk_repair(server, ActiveSlowerFirstRepair, [0, 1, 2])
        assert coop.total_time < naive.total_time
        assert coop.chunks_read < naive.chunks_read
        # all stripes still recoverable: no stripe lost more than m = 4 chunks
        for si in server.stripes_needing_repair([0, 1, 2]):
            assert len(server.layout[si].lost_shards([0, 1, 2])) <= 4


class TestConsistencyAcrossRuns:
    def test_timing_and_data_paths_agree_on_reads(self):
        """The timing outcome and the byte-moving repair count the same work."""
        server = build_exp_server(
            n=6, k=4, disk_size="2MiB", chunk_size="256KiB", num_disks=12,
            ros=0.2, seed=23, with_data=True,
        )
        server.fail_disk(0)
        outcome = repair_single_disk(server, PassiveRepair(), 0)
        stats = recover_disk(server, PassiveRepair(), 0).data_path
        assert stats.chunks_read == outcome.chunks_read
