"""Speed profiles: distribution shapes and determinism."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hdss.profiles import (
    BimodalSlowProfile,
    UniformProfile,
    build_disks,
)


class TestUniform:
    def test_constant(self):
        vals = UniformProfile(100.0).sample(10)
        assert np.all(vals == 100.0)

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigurationError):
            UniformProfile(0)

    def test_describe(self):
        assert "uniform" in UniformProfile(1e6).describe()


class TestBimodal:
    def test_slow_count(self):
        prof = BimodalSlowProfile(100.0, ros=0.25, slow_factor=4.0)
        vals = prof.sample(20, rng=0)
        assert (vals == 25.0).sum() == 5
        assert (vals == 100.0).sum() == 15

    def test_ros_zero(self):
        vals = BimodalSlowProfile(100.0, ros=0.0).sample(10, rng=0)
        assert np.all(vals == 100.0)

    def test_ros_one(self):
        vals = BimodalSlowProfile(100.0, ros=1.0, slow_factor=2.0).sample(10, rng=0)
        assert np.all(vals == 50.0)

    def test_bad_factor(self):
        with pytest.raises(ConfigurationError):
            BimodalSlowProfile(100.0, ros=0.1, slow_factor=0.5)

    def test_deterministic_slow_set(self):
        prof = BimodalSlowProfile(100.0, ros=0.3)
        a = prof.sample(30, rng=1)
        b = prof.sample(30, rng=1)
        assert np.array_equal(a, b)


class TestBuildDisks:
    def test_count_and_ids(self):
        disks = build_disks(5, UniformProfile(10.0), capacity=0, seed=0)
        assert [d.disk_id for d in disks] == [0, 1, 2, 3, 4]

    def test_bandwidths_from_profile(self):
        disks = build_disks(8, BimodalSlowProfile(100.0, ros=0.25), capacity=0, seed=3)
        bws = sorted(d.nominal_bandwidth for d in disks)
        assert bws[0] == 25.0 and bws[-1] == 100.0

    def test_reproducible(self):
        a = build_disks(6, BimodalSlowProfile(1e6, ros=0.5), capacity=0, seed=11)
        b = build_disks(6, BimodalSlowProfile(1e6, ros=0.5), capacity=0, seed=11)
        assert [d.nominal_bandwidth for d in a] == [d.nominal_bandwidth for d in b]
