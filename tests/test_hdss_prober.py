"""Active probing and passive monitoring."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import BimodalSlowProfile
from repro.hdss.prober import ActiveProber, PassiveMonitor


@pytest.fixture
def server():
    cfg = HDSSConfig(
        num_disks=12, n=6, k=4, chunk_size=64 * 1024, memory_chunks=8,
        profile=BimodalSlowProfile(100e6, ros=0.25, slow_factor=4.0), seed=2,
    )
    s = HighDensityStorageServer(cfg)
    s.provision_stripes(20)
    return s


class TestActiveProber:
    def test_probe_disk_close_to_truth(self, server):
        prober = ActiveProber(server, noise=0.01)
        bw = prober.probe_disk(0)
        truth = server.disk(0).current_bandwidth
        assert abs(bw - truth) / truth < 0.1

    def test_estimated_chunk_time(self, server):
        prober = ActiveProber(server, noise=0.0)
        t = prober.estimated_chunk_time(1)
        truth = server.disk(1).transfer_time(server.config.chunk_size, jittered=False)
        assert t == pytest.approx(truth, rel=1e-6)

    def test_probe_traffic_accounted(self, server):
        prober = ActiveProber(server, probe_size=2048)
        for disk_id in (0, 1, 2):
            prober.probe_disk(disk_id)
        assert prober.probe_bytes_issued == 3 * 2048

    def test_noisy_estimates_differ_from_truth(self, server):
        server.fail_disk(0)
        prober = ActiveProber(server, noise=0.1)
        healthy = [d.disk_id for d in server.disks if not d.is_failed]
        estimated = [prober.estimated_chunk_time(d) for d in healthy]
        truth = [
            server.disk(d).transfer_time(server.config.chunk_size, jittered=False)
            for d in healthy
        ]
        assert not np.allclose(estimated, truth)

    def test_bad_params(self, server):
        with pytest.raises(ConfigurationError):
            ActiveProber(server, probe_size=0)
        with pytest.raises(ConfigurationError):
            ActiveProber(server, noise=-0.1)


class TestPassiveMonitor:
    def test_absolute_threshold(self):
        mon = PassiveMonitor(threshold=2.0)
        assert not mon.observe(0, 1.9)
        assert mon.observe(1, 2.1)
        assert mon.slow_disks == [1]
        assert mon.is_slow(1) and not mon.is_slow(0)

    def test_derived_threshold(self):
        mon = PassiveMonitor(threshold_ratio=2.0)
        # establish a baseline near 1.0
        for i in range(20):
            mon.observe(0, 1.0)
        assert mon.current_threshold() == pytest.approx(2.0)
        assert mon.observe(5, 4.0)
        assert mon.is_slow(5)

    def test_first_observation_never_marks(self):
        mon = PassiveMonitor(threshold_ratio=2.0)
        assert not mon.observe(3, 100.0)

    def test_clear(self):
        mon = PassiveMonitor(threshold=1.0)
        mon.observe(0, 2.0)
        mon.observe(1, 2.0)
        mon.clear(0)
        assert mon.slow_disks == [1]
        mon.clear()
        assert mon.slow_disks == []

    def test_history(self):
        mon = PassiveMonitor(threshold=1.0)
        mon.observe(0, 0.5)
        mon.observe(1, 1.5)
        assert mon.history == [(0, 0.5), (1, 1.5)]

    def test_negative_observation_rejected(self):
        with pytest.raises(ConfigurationError):
            PassiveMonitor(threshold=1.0).observe(0, -1.0)

    def test_bad_ratio(self):
        with pytest.raises(ConfigurationError):
            PassiveMonitor(threshold_ratio=1.0)

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            PassiveMonitor(threshold=0.0)

    def test_many_observations_fast(self):
        """Amortised-O(1) threshold: 20k observations in well under a second."""
        import time

        mon = PassiveMonitor(threshold_ratio=2.0)
        t0 = time.perf_counter()
        for i in range(20_000):
            mon.observe(i % 30, 1.0 + (i % 7) * 0.01)
        assert time.perf_counter() - t0 < 2.0
