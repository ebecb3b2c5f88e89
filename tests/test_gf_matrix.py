"""GF(2^8) matrix algebra: products, inversion, RS encoding matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodingError
from repro.gf import gf_mat_inv, gf_mat_mul, gf_rs_encoding_matrix
from repro.gf.arithmetic import gf_mul
from repro.gf.matrix import gf_cauchy, gf_identity, gf_vandermonde


def random_matrix(rng, rows, cols):
    return rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestMatMul:
    def test_identity_neutral(self, rng):
        m = random_matrix(rng, 5, 5)
        assert np.array_equal(gf_mat_mul(gf_identity(5), m), m)
        assert np.array_equal(gf_mat_mul(m, gf_identity(5)), m)

    def test_associative(self, rng):
        a, b, c = (random_matrix(rng, 4, 4) for _ in range(3))
        assert np.array_equal(gf_mat_mul(gf_mat_mul(a, b), c), gf_mat_mul(a, gf_mat_mul(b, c)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            gf_mat_mul(random_matrix(rng, 2, 3), random_matrix(rng, 2, 3))

    def test_manual_2x2(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        b = np.array([[5, 6], [7, 0]], dtype=np.uint8)
        out = gf_mat_mul(a, b)
        assert out[0, 0] == int(gf_mul(1, 5)) ^ int(gf_mul(2, 7))
        assert out[1, 1] == int(gf_mul(3, 6)) ^ 0


class TestInverse:
    def test_inverse_roundtrip(self, rng):
        for _ in range(10):
            size = int(rng.integers(1, 8))
            m = random_matrix(rng, size, size)
            try:
                inv = gf_mat_inv(m)
            except CodingError:
                continue  # singular draw
            assert np.array_equal(gf_mat_mul(m, inv), gf_identity(size))
            assert np.array_equal(gf_mat_mul(inv, m), gf_identity(size))

    def test_identity_inverse(self):
        assert np.array_equal(gf_mat_inv(gf_identity(6)), gf_identity(6))

    def test_singular_raises(self):
        m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(CodingError):
            gf_mat_inv(m)

    def test_zero_matrix_singular(self):
        with pytest.raises(CodingError):
            gf_mat_inv(np.zeros((3, 3), dtype=np.uint8))

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            gf_mat_inv(random_matrix(rng, 2, 3))

    def test_input_not_mutated(self, rng):
        m = random_matrix(rng, 4, 4)
        copy = m.copy()
        try:
            gf_mat_inv(m)
        except CodingError:
            pass
        assert np.array_equal(m, copy)


class TestStructuredMatrices:
    def test_vandermonde_values(self):
        v = gf_vandermonde(4, 3)
        assert v[0, 0] == 1  # 0**0 == 1 convention
        assert v[2, 1] == 2
        assert v[3, 2] == int(gf_mul(3, 3))

    def test_vandermonde_too_many_rows(self):
        with pytest.raises(ValueError):
            gf_vandermonde(257, 3)

    def test_cauchy_every_square_submatrix_invertible(self):
        c = gf_cauchy(4, 4)
        # every single entry non-zero
        assert np.all(c != 0)
        # every 2x2 minor invertible
        for r1 in range(4):
            for r2 in range(r1 + 1, 4):
                for c1 in range(4):
                    for c2 in range(c1 + 1, 4):
                        sub = c[np.ix_([r1, r2], [c1, c2])]
                        gf_mat_inv(sub)  # must not raise

    def test_cauchy_range_guard(self):
        with pytest.raises(ValueError):
            gf_cauchy(200, 100)


class TestRSEncodingMatrix:
    @pytest.mark.parametrize("style", ["vandermonde", "cauchy"])
    @pytest.mark.parametrize("n,k", [(6, 4), (9, 6), (14, 10), (5, 3)])
    def test_systematic_top(self, n, k, style):
        m = gf_rs_encoding_matrix(n, k, style=style)
        assert m.shape == (n, k)
        assert np.array_equal(m[:k], gf_identity(k))

    @pytest.mark.parametrize("style", ["vandermonde", "cauchy"])
    def test_mds_every_k_rows_invertible(self, style):
        from itertools import combinations

        n, k = 7, 4
        m = gf_rs_encoding_matrix(n, k, style=style)
        for rows in combinations(range(n), k):
            gf_mat_inv(m[list(rows)])  # must not raise for MDS

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gf_rs_encoding_matrix(4, 4)
        with pytest.raises(ValueError):
            gf_rs_encoding_matrix(3, 0)
        with pytest.raises(ValueError):
            gf_rs_encoding_matrix(6, 4, style="mystery")


class TestInverseHypothesis:
    @given(seed=st.integers(min_value=0, max_value=10_000), size=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_random_invertible_roundtrip(self, seed, size):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 256, size=(size, size), dtype=np.uint8)
        try:
            inv = gf_mat_inv(m)
        except CodingError:
            return
        assert np.array_equal(gf_mat_mul(inv, m), gf_identity(size))
