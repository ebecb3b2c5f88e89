"""GF(2^8) arithmetic: exhaustive identities plus hypothesis field axioms."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import gf_mul_add_scalar, gf_mul_scalar
from repro.gf.arithmetic import gf_add, gf_div, gf_inv, gf_mul, gf_pow, gf_sub
from repro.gf.tables import exp_table, log_table
from repro.ec.encoder import RSCode
from repro.ec.partial import PartialDecoder
from repro.gf.arithmetic import gf_product_table

ALL = np.arange(256, dtype=np.uint8)
NONZERO = ALL[1:]

elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


class TestTables:
    def test_exp_table_doubled(self):
        exp = exp_table()
        assert exp.shape == (510,)
        assert np.array_equal(exp[:255], exp[255:])

    def test_exp_covers_all_nonzero(self):
        assert set(exp_table()[:255].tolist()) == set(range(1, 256))

    def test_log_exp_inverse(self):
        exp, log = exp_table(), log_table()
        for x in range(1, 256):
            assert exp[log[x]] == x

    def test_tables_read_only(self):
        with pytest.raises(ValueError):
            exp_table()[0] = 1
        with pytest.raises(ValueError):
            log_table()[0] = 1


class TestAddition:
    def test_add_is_xor(self):
        a = ALL.reshape(16, 16)
        b = ALL.reshape(16, 16)[::-1]
        assert np.array_equal(gf_add(a, b), a ^ b)

    def test_add_self_is_zero(self):
        assert np.all(gf_add(ALL, ALL) == 0)

    def test_sub_equals_add(self):
        assert np.array_equal(gf_sub(ALL, 7), gf_add(ALL, 7))


class TestMultiplication:
    def test_mul_by_zero(self):
        assert np.all(gf_mul(ALL, 0) == 0)
        assert np.all(gf_mul(0, ALL) == 0)

    def test_mul_by_one(self):
        assert np.array_equal(gf_mul(ALL, 1), ALL)

    def test_mul_commutative_exhaustive(self):
        a = ALL[:, None]
        b = ALL[None, :]
        assert np.array_equal(gf_mul(a, b), gf_mul(b, a))

    def test_mul_matches_carryless_reference(self):
        # Reference: bitwise carry-less multiply mod 0x11D.
        def ref_mul(x, y):
            r = 0
            while y:
                if y & 1:
                    r ^= x
                y >>= 1
                x <<= 1
                if x & 0x100:
                    x ^= 0x11D
            return r

        rng = np.random.default_rng(0)
        for _ in range(500):
            x = int(rng.integers(0, 256))
            y = int(rng.integers(0, 256))
            assert int(gf_mul(x, y)) == ref_mul(x, y)

    def test_scalar_inputs_give_scalars(self):
        assert int(gf_mul(3, 7)) == int(gf_mul(np.uint8(3), np.uint8(7)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gf_mul(np.array([300]), 1)


class TestDivisionInverse:
    def test_div_inverse_of_mul(self):
        a = NONZERO[:, None]
        b = NONZERO[None, :]
        prod = gf_mul(a, b)
        assert np.array_equal(gf_div(prod, b * np.ones_like(a)), a * np.ones_like(b))

    def test_inv_exhaustive(self):
        assert np.all(gf_mul(NONZERO, gf_inv(NONZERO)) == 1)

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(1, 0)
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_zero_numerator(self):
        assert np.all(gf_div(0, NONZERO) == 0)


class TestPow:
    def test_pow_zero_exponent(self):
        assert np.all(gf_pow(ALL, 0) == 1)

    def test_pow_one(self):
        assert np.array_equal(gf_pow(ALL, 1), ALL)

    def test_pow_matches_repeated_mul(self):
        x = np.uint8(37)
        acc = np.uint8(1)
        for e in range(1, 10):
            acc = gf_mul(acc, x)
            assert int(gf_pow(x, e)) == int(acc)

    def test_fermat(self):
        # a^255 == 1 for all non-zero a
        assert np.all(gf_pow(NONZERO, 255) == 1)

    def test_negative_exponent(self):
        assert np.all(gf_pow(NONZERO, -1) == gf_inv(NONZERO))

    def test_zero_base_positive_exponent(self):
        assert int(gf_pow(0, 5)) == 0


class TestBufferKernels:
    def test_mul_scalar_matches_elementwise(self, rng):
        buf = rng.integers(0, 256, size=1000, dtype=np.uint8)
        for coeff in (0, 1, 2, 37, 255):
            assert np.array_equal(gf_mul_scalar(coeff, buf), gf_mul(coeff, buf))

    def test_mul_scalar_zero_and_one(self, rng):
        buf = rng.integers(0, 256, size=64, dtype=np.uint8)
        assert np.all(gf_mul_scalar(0, buf) == 0)
        assert np.array_equal(gf_mul_scalar(1, buf), buf)

    def test_mul_scalar_does_not_alias(self, rng):
        buf = rng.integers(0, 256, size=64, dtype=np.uint8)
        out = gf_mul_scalar(1, buf)
        out[0] ^= 0xFF
        assert out[0] != buf[0] or buf[0] == out[0] ^ 0xFF  # original unchanged
        assert not np.shares_memory(out, buf)

    def test_mul_scalar_bad_coeff(self, rng):
        with pytest.raises(ValueError):
            gf_mul_scalar(256, np.zeros(4, dtype=np.uint8))

    def test_mul_add_scalar_in_place(self, rng):
        acc = rng.integers(0, 256, size=128, dtype=np.uint8)
        buf = rng.integers(0, 256, size=128, dtype=np.uint8)
        expected = acc ^ gf_mul(9, buf)
        returned = gf_mul_add_scalar(acc, 9, buf)
        assert returned is acc
        assert np.array_equal(acc, expected)

    def test_mul_add_scalar_zero_coeff_noop(self, rng):
        acc = rng.integers(0, 256, size=16, dtype=np.uint8)
        before = acc.copy()
        gf_mul_add_scalar(acc, 0, rng.integers(0, 256, size=16, dtype=np.uint8))
        assert np.array_equal(acc, before)

    def test_mul_add_scalar_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf_mul_add_scalar(np.zeros(4, dtype=np.uint8), 1, np.zeros(5, dtype=np.uint8))

    def test_mul_add_scalar_wrong_dtype(self):
        with pytest.raises(ValueError):
            gf_mul_add_scalar(np.zeros(4, dtype=np.uint16), 1, np.zeros(4, dtype=np.uint8))


class TestChunkKernelsExhaustive:
    """The chunk kernels against the element-wise ``gf_mul`` reference,
    for every coefficient and every byte value, plus the buffer shapes and
    aliasing the codec relies on. Run alone with
    ``PYTHONPATH=src python -m pytest -q tests/test_gf_arithmetic.py -k Exhaustive``.
    """

    @pytest.mark.parametrize("coeff", range(256))
    def test_both_kernels_equal_gf_mul(self, coeff):
        expected = gf_mul(coeff, ALL)
        assert np.array_equal(gf_mul_scalar(coeff, ALL), expected)
        acc = ALL[::-1].copy()
        assert np.array_equal(gf_mul_add_scalar(acc, coeff, ALL), ALL[::-1] ^ expected)

    @pytest.mark.parametrize("coeff", [0, 1, 2, 0x8E, 255])
    def test_acc_may_alias_buf(self, coeff):
        acc = ALL.copy()
        gf_mul_add_scalar(acc, coeff, acc)
        assert np.array_equal(acc, ALL ^ gf_mul(coeff, ALL))

    @pytest.mark.parametrize("coeff", [1, 3, 0xA7])
    def test_non_contiguous_buf(self, coeff):
        strided = np.repeat(ALL, 2)[::2]
        transposed = ALL.reshape(16, 16).T
        for buf in (strided, transposed):
            assert not buf.flags.c_contiguous
            assert np.array_equal(gf_mul_scalar(coeff, buf), gf_mul(coeff, buf))
            acc = np.zeros(buf.shape, dtype=np.uint8)
            gf_mul_add_scalar(acc, coeff, buf)
            assert np.array_equal(acc, gf_mul(coeff, buf))

    @pytest.mark.parametrize("coeff", [0, 1, 2, 0x53])
    def test_mul_scalar_returns_fresh_writable_array(self, coeff):
        buf = ALL.copy()
        out = gf_mul_scalar(coeff, buf)
        assert out.flags.writeable
        assert not np.shares_memory(out, buf)
        table = np.frombuffer(gf_product_table(coeff), dtype=np.uint8)
        assert not np.shares_memory(out, table)
        out[:] = 0x5A
        assert np.array_equal(buf, ALL)
        assert np.array_equal(gf_mul_scalar(coeff, ALL), gf_mul(coeff, ALL))

    @pytest.mark.parametrize("coeff", [256, -1])
    def test_coefficient_outside_field_rejected(self, coeff):
        with pytest.raises(ValueError):
            gf_mul_scalar(coeff, ALL)
        with pytest.raises(ValueError):
            gf_mul_add_scalar(ALL.copy(), coeff, ALL)


class TestGoldenBytes:
    """SHA-256 of codec output, recorded before the chunk kernel moved from
    ``np.take`` to ``bytes.translate``: a kernel swap must not move a byte."""

    PARITY = "a3e8e544516aabfdc58a589783bcc65fdef29a233cf0cc094216c58d52ad37d2"
    REBUILD = "102ef36567d54d472e8d70ce4e6fd39ba92a2ad3f335baccfd4ffa5462c79146"

    def test_rs_parity_and_partial_rebuild(self):
        rng = np.random.default_rng(38)
        code = RSCode(9, 6)
        data = [rng.integers(0, 256, size=4096, dtype=np.uint8) for _ in range(6)]
        shards = code.encode(data)
        parity = b"".join(s.tobytes() for s in shards[6:])
        assert hashlib.sha256(parity).hexdigest() == self.PARITY
        pd = PartialDecoder(code, survivor_ids=[0, 1, 3, 4, 6, 8], targets=[2, 7])
        pd.feed({0: shards[0], 3: shards[3], 8: shards[8]})
        pd.feed({1: shards[1], 4: shards[4], 6: shards[6]})
        out = pd.results()
        rebuilt = out[2].tobytes() + out[7].tobytes()
        assert hashlib.sha256(rebuilt).hexdigest() == self.REBUILD


class TestFieldAxiomsHypothesis:
    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=200, deadline=None)
    def test_mul_associative(self, a, b, c):
        assert int(gf_mul(gf_mul(a, b), c)) == int(gf_mul(a, gf_mul(b, c)))

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=200, deadline=None)
    def test_distributive(self, a, b, c):
        left = gf_mul(a, gf_add(b, c))
        right = gf_add(gf_mul(a, b), gf_mul(a, c))
        assert int(left) == int(right)

    @given(a=elements, b=elements)
    @settings(max_examples=200, deadline=None)
    def test_add_commutative(self, a, b):
        assert int(gf_add(a, b)) == int(gf_add(b, a))

    @given(a=nonzero_elements, b=nonzero_elements)
    @settings(max_examples=200, deadline=None)
    def test_product_of_nonzero_is_nonzero(self, a, b):
        assert int(gf_mul(a, b)) != 0

    @given(a=elements, b=nonzero_elements)
    @settings(max_examples=200, deadline=None)
    def test_div_roundtrip(self, a, b):
        assert int(gf_mul(gf_div(a, b), b)) == a


@pytest.fixture
def rng():
    return np.random.default_rng(99)
