"""RSCode: split/encode/verify/join."""

import numpy as np
import pytest

from repro.ec.encoder import RSCode
from repro.errors import CodingError, ConfigurationError


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def code():
    return RSCode(9, 6)


def random_bytes(rng, size):
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


class TestConstruction:
    @pytest.mark.parametrize("n,k", [(6, 4), (9, 6), (14, 10), (2, 1), (256, 100)])
    def test_valid_params(self, n, k):
        code = RSCode(n, k)
        assert code.m == n - k
        assert code.matrix.shape == (n, k)

    @pytest.mark.parametrize("n,k", [(4, 4), (4, 5), (4, 0), (257, 100)])
    def test_invalid_params(self, n, k):
        with pytest.raises(ConfigurationError):
            RSCode(n, k)

    def test_non_int_rejected(self):
        with pytest.raises(ConfigurationError):
            RSCode(9.0, 6)

    def test_repr(self, code):
        assert "9" in repr(code) and "6" in repr(code)


class TestSplit:
    def test_split_sizes(self, code, rng):
        data = random_bytes(rng, 6 * 100)
        shards = code.split(data)
        assert len(shards) == 6
        assert all(s.size == 100 for s in shards)

    def test_split_pads(self, code, rng):
        data = random_bytes(rng, 601)  # not divisible by 6
        shards = code.split(data)
        assert all(s.size == shards[0].size for s in shards)
        assert shards[0].size * 6 >= 601

    def test_split_explicit_chunk_size(self, code, rng):
        data = random_bytes(rng, 50)
        shards = code.split(data, chunk_size=64)
        assert all(s.size == 64 for s in shards)

    def test_split_too_big_for_chunk_size(self, code, rng):
        with pytest.raises(CodingError):
            code.split(random_bytes(rng, 1000), chunk_size=10)

    def test_split_empty_rejected(self, code):
        with pytest.raises(CodingError):
            code.split(b"")

    def test_join_roundtrip(self, code, rng):
        data = random_bytes(rng, 599)
        shards = code.split(data)
        assert code.join(shards, len(data)) == data

    def test_join_wrong_count(self, code, rng):
        with pytest.raises(CodingError):
            code.join([np.zeros(4, dtype=np.uint8)] * 5, 10)

    def test_join_size_too_large(self, code):
        shards = [np.zeros(4, dtype=np.uint8)] * 6
        with pytest.raises(CodingError):
            code.join(shards, 100)


class TestEncode:
    def test_encode_shard_count(self, code, rng):
        shards = code.encode(code.split(random_bytes(rng, 600)))
        assert len(shards) == 9

    def test_systematic(self, code, rng):
        data_shards = code.split(random_bytes(rng, 600))
        shards = code.encode(data_shards)
        for i in range(6):
            assert np.array_equal(shards[i], data_shards[i])

    def test_parity_deterministic(self, code, rng):
        data_shards = code.split(random_bytes(rng, 600))
        a = code.encode(data_shards)
        b = code.encode(data_shards)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_parity_linear(self, code, rng):
        """Parity of (A xor B) == parity(A) xor parity(B) — Equation (1)."""
        a = code.split(random_bytes(rng, 600))
        b = code.split(random_bytes(rng, 600))
        xor = [x ^ y for x, y in zip(a, b)]
        pa = code.encode(a)[6:]
        pb = code.encode(b)[6:]
        pxor = code.encode(xor)[6:]
        for x, y, z in zip(pa, pb, pxor):
            assert np.array_equal(x ^ y, z)

    def test_wrong_shard_count(self, code):
        with pytest.raises(CodingError):
            code.encode([np.zeros(8, dtype=np.uint8)] * 5)

    def test_unequal_shards(self, code):
        shards = [np.zeros(8, dtype=np.uint8)] * 5 + [np.zeros(9, dtype=np.uint8)]
        with pytest.raises(CodingError):
            code.encode(shards)

    def test_2d_shards_rejected(self, code):
        with pytest.raises(CodingError):
            code.encode([np.zeros((2, 4), dtype=np.uint8)] * 6)


class TestVerify:
    def test_consistent(self, code, rng):
        shards = code.encode(code.split(random_bytes(rng, 600)))
        assert code.verify(shards)

    def test_corruption_detected(self, code, rng):
        shards = code.encode(code.split(random_bytes(rng, 600)))
        shards[7] = shards[7].copy()
        shards[7][0] ^= 1
        assert not code.verify(shards)

    def test_missing_shard_fails(self, code, rng):
        shards = list(code.encode(code.split(random_bytes(rng, 600))))
        shards[0] = None
        assert not code.verify(shards)

    def test_wrong_count(self, code):
        with pytest.raises(CodingError):
            code.verify([np.zeros(4, dtype=np.uint8)] * 3)
