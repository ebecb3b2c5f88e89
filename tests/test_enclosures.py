"""Enclosure topology and repair after a correlated (backplane) failure."""

import pytest

from repro.errors import ConfigurationError
from repro.hdss import HDSSConfig, HighDensityStorageServer


@pytest.fixture
def server():
    cfg = HDSSConfig(
        num_disks=12, n=6, k=4, chunk_size=1024, memory_chunks=8, spares=2,
        enclosure_size=4, seed=3,
    )
    srv = HighDensityStorageServer(cfg)
    srv.provision_stripes(20)
    return srv


class TestTopology:
    def test_enclosure_disks(self, server):
        assert server.enclosure_disks(1) == [4, 5, 6, 7]
        # spares land in the last (partial) enclosure
        assert server.enclosure_disks(3) == [12, 13]

    def test_unknown_enclosure(self, server):
        with pytest.raises(ConfigurationError):
            server.enclosure_disks(9)

    def test_unconfigured_rejected(self, small_server):
        with pytest.raises(ConfigurationError):
            small_server.enclosure_disks(0)

    def test_bad_size_config(self):
        with pytest.raises(ConfigurationError):
            HDSSConfig(enclosure_size=0)


class TestFailEnclosure:
    def test_cooperative_repair_after_backplane_event(self):
        """A backplane event within the code's tolerance is repairable."""
        from repro.core import FullStripeRepair, cooperative_multi_disk_repair

        cfg = HDSSConfig(
            num_disks=18, n=9, k=6, chunk_size=1024, memory_chunks=12,
            spares=3, enclosure_size=3, seed=5, placement="random",
        )
        srv = HighDensityStorageServer(cfg)
        srv.provision_stripes(40)
        failed = srv.enclosure_disks(2)  # 3 disks <= m = 3
        for disk_id in failed:
            srv.fail_disk(disk_id)
        out = cooperative_multi_disk_repair(srv, FullStripeRepair, failed)
        assert out.chunks_rebuilt > 0
        assert out.time_to_safety is not None
