"""Unit tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import derive_seed, make_rng, optional_seed


class TestMakeRng:
    def test_int_seed_deterministic(self):
        a = make_rng(5).integers(0, 1_000_000, size=10)
        b = make_rng(5).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(5).integers(0, 1_000_000, size=10)
        b = make_rng(6).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "disk", 3) == derive_seed(42, "disk", 3)

    def test_label_sensitivity(self):
        assert derive_seed(42, "disk", 3) != derive_seed(42, "disk", 4)
        assert derive_seed(42, "disk") != derive_seed(42, "placement")

    def test_base_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_in_63_bit_range(self):
        for i in range(50):
            s = derive_seed(i, "label", i * 7)
            assert 0 <= s < 2**63

    def test_no_concatenation_collision(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")





class TestOptionalSeed:
    def test_int(self):
        assert optional_seed(7) == 7

    def test_none(self):
        assert optional_seed(None) is None

    def test_generator(self):
        assert optional_seed(np.random.default_rng(0)) is None
