"""HighDensityStorageServer: provisioning, failure, repair views."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DiskFailedError, StorageError
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import BimodalSlowProfile


class TestConfig:
    def test_defaults(self):
        cfg = HDSSConfig()
        assert cfg.num_disks == 36 and cfg.n == 9 and cfg.k == 6

    def test_string_chunk_size(self):
        cfg = HDSSConfig(chunk_size="1MiB")
        assert cfg.chunk_size == 2**20

    def test_memory_too_small(self):
        with pytest.raises(ConfigurationError):
            HDSSConfig(n=9, k=6, memory_chunks=5)

    def test_n_exceeds_disks(self):
        with pytest.raises(ConfigurationError):
            HDSSConfig(num_disks=5, n=9, k=6)

    def test_bad_placement(self):
        with pytest.raises(ConfigurationError):
            HDSSConfig(placement="hash")

    def test_negative_spares(self):
        with pytest.raises(ConfigurationError):
            HDSSConfig(spares=-1)


class TestProvisioning:
    def test_metadata_only(self, metadata_server):
        assert len(metadata_server.layout) == 30
        from repro.hdss.store import InMemoryChunkStore

        assert isinstance(metadata_server.store, InMemoryChunkStore)
        assert metadata_server.store.total_chunks() == 0

    def test_with_data(self, small_server):
        assert small_server.store.total_chunks() == 20 * 6

    def test_double_provision_rejected(self, small_server):
        with pytest.raises(StorageError):
            small_server.provision_stripes(5)

    def test_spare_ids(self, small_server):
        assert small_server.spare_disk_ids == [12, 13]

    def test_stripes_only_on_regular_disks(self, small_server):
        for stripe in small_server.layout:
            assert all(d < 12 for d in stripe.disks)


class TestObjects:
    def test_write_read_object(self, small_config):
        server = HighDensityStorageServer(small_config)
        data = bytes(range(256)) * 100
        stripe = server.write_object(data)
        assert server.read_object(stripe.index) == data

    def test_degraded_read(self, small_config):
        server = HighDensityStorageServer(small_config)
        data = b"hello world" * 1000
        stripe = server.write_object(data)
        server.fail_disk(stripe.disks[0])
        assert server.read_object(stripe.index) == data

    def test_read_unprovisioned_object(self, metadata_server):
        with pytest.raises(StorageError):
            metadata_server.read_object(0)


class TestFailure:
    def test_fail_destroys_chunks(self, small_server):
        before = small_server.store.total_chunks()
        lost = small_server.fail_disk(0)
        assert lost > 0
        assert small_server.store.total_chunks() == before - lost
        assert small_server.failed_disks() == [0]

    def test_double_fail_rejected(self, small_server):
        small_server.fail_disk(0)
        with pytest.raises(DiskFailedError):
            small_server.fail_disk(0)

    def test_fail_keep_data(self, small_server):
        before = small_server.store.total_chunks()
        small_server.fail_disk(1, destroy_data=False)
        assert small_server.store.total_chunks() == before

    def test_unknown_disk(self, small_server):
        with pytest.raises(ConfigurationError):
            small_server.disk(99)

    def test_slow_disks_ground_truth(self):
        cfg = HDSSConfig(
            num_disks=20, n=6, k=4, chunk_size=1024, memory_chunks=8,
            profile=BimodalSlowProfile(100e6, ros=0.2, slow_factor=4.0), seed=1,
        )
        server = HighDensityStorageServer(cfg)
        slow = server.slow_disks()
        assert len(slow) >= 1
        for d in slow:
            assert server.disk(d).current_bandwidth < 50e6


class TestRepairView:
    def test_stripes_needing_repair(self, metadata_server):
        metadata_server.fail_disk(0)
        stripes = metadata_server.stripes_needing_repair([0])
        assert stripes == metadata_server.layout.stripe_set(0)

    def test_transfer_matrix_shape(self, metadata_server):
        metadata_server.fail_disk(0)
        sidx, survivors, L = metadata_server.transfer_time_matrix([0])
        assert L.shape == (len(sidx), metadata_server.config.k)
        assert len(survivors) == len(sidx)
        assert np.all(L > 0)

    def test_survivors_exclude_failed(self, metadata_server):
        metadata_server.fail_disk(0)
        sidx, survivors, _ = metadata_server.transfer_time_matrix([0])
        for si, shards in zip(sidx, survivors):
            stripe = metadata_server.layout[si]
            for j in shards:
                assert stripe.disks[j] != 0

    def test_survivor_selection_policies(self, hetero_server):
        hetero_server.fail_disk(0)
        stripe = hetero_server.layout[hetero_server.layout.stripe_set(0)[0]]
        first = hetero_server.survivor_shards(stripe, [0], select="first")
        fastest = hetero_server.survivor_shards(stripe, [0], select="fastest")
        rand = hetero_server.survivor_shards(stripe, [0], select="random")
        k = hetero_server.config.k
        assert len(first) == len(fastest) == len(rand) == k
        # fastest must pick survivors whose min bandwidth >= first's min
        bw = lambda ids: min(
            hetero_server.disks[stripe.disks[j]].current_bandwidth for j in ids
        )
        assert bw(fastest) >= bw(first)

    def test_unknown_selection(self, metadata_server):
        stripe = metadata_server.layout[0]
        with pytest.raises(ConfigurationError):
            metadata_server.survivor_shards(stripe, [], select="best")

    def test_unrecoverable_stripe(self, small_config):
        server = HighDensityStorageServer(small_config)
        server.provision_stripes(10)
        stripe = server.layout[0]
        # kill m+1 = 3 of the stripe's disks
        for d in stripe.disks[:3]:
            server.fail_disk(d)
        with pytest.raises(StorageError):
            server.survivor_shards(stripe, stripe.disks[:3])

    def test_pick_spare(self, small_server):
        spare = small_server.pick_spare()
        assert spare in small_server.spare_disk_ids
        small_server.disks[spare].fail()
        assert small_server.pick_spare() != spare

    def test_pick_spare_exhausted(self, small_server):
        for d in small_server.spare_disk_ids:
            small_server.disks[d].fail()
        with pytest.raises(StorageError):
            small_server.pick_spare()

    def test_repr(self, small_server):
        assert "HighDensityStorageServer" in repr(small_server)
