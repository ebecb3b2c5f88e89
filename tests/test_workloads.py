"""Workload generators and experiment scenarios."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.units import GiB, MiB
from repro.workloads import (
    PAPER_CODES,
    PAPER_DISK_SIZES,
    build_exp_server,
    normal_transfer_times,
)
from repro.workloads.scenarios import EXP1_GRID, stripes_for


class TestNormalWorkload:
    def test_shape_and_params(self):
        w = normal_transfer_times(100, 12, seed=0)
        assert w.L.shape == (100, 12)
        assert w.s == 100 and w.k == 12
        assert w.params["kind"] == "normal"

    def test_paper_distribution(self):
        """Mean ~2, variance ~4 before slow scaling (large-sample check)."""
        w = normal_transfer_times(3000, 12, mean=2.0, variance=4.0, ros=0.0, floor=-100, seed=1)
        assert abs(w.L.mean() - 2.0) < 0.05
        assert abs(w.L.var() - 4.0) < 0.2

    def test_floor_applied(self):
        w = normal_transfer_times(500, 12, mean=2.0, variance=4.0, seed=2)
        assert w.L.min() >= 0.1

    def test_ros_fraction(self):
        w = normal_transfer_times(100, 10, ros=0.08, seed=3)
        assert w.slow_mask.sum() == 80
        assert w.ros_actual == pytest.approx(0.08)

    def test_slow_chunks_scaled(self):
        w = normal_transfer_times(50, 10, ros=0.1, slow_factor=4.0, seed=4)
        assert w.L[w.slow_mask].mean() > 2.5 * w.L[~w.slow_mask].mean()

    def test_deterministic(self):
        a = normal_transfer_times(20, 6, ros=0.05, seed=9)
        b = normal_transfer_times(20, 6, ros=0.05, seed=9)
        assert np.array_equal(a.L, b.L)
        assert np.array_equal(a.slow_mask, b.slow_mask)

    def test_ros_zero_no_slow(self):
        w = normal_transfer_times(10, 5, ros=0.0, seed=0)
        assert not w.slow_mask.any()

    @pytest.mark.parametrize("bad", [{"ros": 1.5}, {"slow_factor": 0.5}, {"variance": -1}, {"mean": 0}])
    def test_bad_params(self, bad):
        with pytest.raises(ConfigurationError):
            normal_transfer_times(10, 5, **bad)


class TestScenarios:
    def test_paper_grids(self):
        assert PAPER_CODES == [(6, 4), (9, 6), (14, 10)]
        assert PAPER_DISK_SIZES == [100 * GiB, 150 * GiB, 200 * GiB]
        assert len(EXP1_GRID) == 9

    def test_stripes_for_multiple_of_disks(self):
        # 100 GiB disk / 64 MiB chunk = 1600 chunks on the failed disk
        s = stripes_for(100 * GiB, 64 * MiB, num_disks=36, n=9)
        assert s % 36 == 0
        assert s == round(1600 / 9) * 36

    def test_stripes_for_string_sizes(self):
        s = stripes_for("1GiB", "64MiB", 36, 9)
        assert s == round(16 / 9) * 36

    def test_stripes_for_misaligned(self):
        with pytest.raises(ConfigurationError):
            stripes_for(100, 64, 36, 9)

    def test_build_exp_server_failed_disk_holds_disk_size(self):
        server = build_exp_server(
            n=9, k=6, disk_size="1GiB", chunk_size="64MiB", num_disks=36, seed=0
        )
        # every disk holds within n/2 chunks of the requested size
        target = (1 * GiB) // (64 * MiB)
        for d in range(server.config.num_disks):
            assert abs(len(server.layout.stripe_set(d)) - target) <= 9 / 2

    def test_build_exp_server_even_load(self):
        server = build_exp_server(
            n=9, k=6, disk_size="1GiB", chunk_size="64MiB", num_disks=36, seed=0
        )
        counts = {len(server.layout.stripe_set(d)) for d in range(server.config.num_disks)}
        assert len(counts) == 1  # perfectly even

    def test_build_exp_server_memory_default(self):
        server = build_exp_server(n=9, k=6, disk_size="1GiB", chunk_size="64MiB")
        assert server.config.memory_chunks == 12

    def test_slow_disks_present(self):
        server = build_exp_server(
            n=6, k=4, disk_size="1GiB", chunk_size="64MiB", ros=0.2, seed=1
        )
        assert len(server.slow_disks()) >= 1
