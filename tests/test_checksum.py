"""CRC32C (Castagnoli): known-answer vectors, incremental updates, and the
equivalence of both in-tree kernels to a byte-at-a-time oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import checksum
from repro.utils.checksum import (
    _crc32c_numpy,
    _crc32c_sliced,
    _crc32c_vector,
    crc32c,
)

_POLY = 0x82F63B78
_BYTE_TABLE = []
for _i in range(256):
    _crc = _i
    for _ in range(8):
        _crc = (_crc >> 1) ^ _POLY if _crc & 1 else _crc >> 1
    _BYTE_TABLE.append(_crc)


def _crc32c_bytewise(data: bytes, value: int = 0) -> int:
    """The oracle: the textbook byte-at-a-time table walk, sharing no code
    and no table with ``repro.utils.checksum``."""
    crc = (~value) & 0xFFFFFFFF
    for byte in data:
        crc = _BYTE_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return (~crc) & 0xFFFFFFFF


def _random_bytes(length: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=length, dtype=np.uint8).tobytes()


class TestKnownAnswers:
    """Reference values from RFC 3720 appendix B.4 / kernel test vectors."""

    VECTORS = [
        (b"", 0x00000000),
        (b"123456789", 0xE3069283),
        (b"\x00" * 32, 0x8A9136AA),
        (b"\xff" * 32, 0x62A8AB43),
        (bytes(range(32)), 0x46DD794E),
    ]

    @pytest.mark.parametrize("data,expected", VECTORS)
    def test_vector(self, data, expected):
        assert crc32c(data) == expected

    def test_incremental_matches_one_shot(self):
        data = bytes(range(256)) * 7
        acc = 0
        for i in range(0, len(data), 100):
            acc = crc32c(data[i:i + 100], acc)
        assert acc == crc32c(data)

    def test_accepts_ndarray_and_memoryview(self):
        arr = np.arange(64, dtype=np.uint8)
        raw = arr.tobytes()
        assert crc32c(arr) == crc32c(raw) == crc32c(memoryview(raw))

    def test_single_bit_flip_changes_crc(self):
        data = bytearray(b"123456789")
        ref = crc32c(bytes(data))
        for byte in range(len(data)):
            for bit in range(8):
                data[byte] ^= 1 << bit
                assert crc32c(bytes(data)) != ref
                data[byte] ^= 1 << bit




class TestSlicedEquivalence:
    """The slicing-by-4 scalar path must match the bytewise oracle exactly."""

    @pytest.mark.parametrize("length", list(range(0, 17)) + [31, 32, 33, 63, 64, 65, 127, 255, 4096, 4097])
    def test_boundary_lengths(self, length):
        data = _random_bytes(length, seed=length)
        assert _crc32c_sliced(data) == _crc32c_bytewise(data)

    def test_random_inputs_and_seeds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            length = int(rng.integers(0, 1024))
            data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            seed = int(rng.integers(0, 2**32))
            assert _crc32c_sliced(data, seed) == _crc32c_bytewise(data, seed)

    def test_streaming_continuation_across_unaligned_splits(self):
        data = _random_bytes(1000, seed=11)
        for split in (0, 1, 2, 3, 4, 5, 7, 500, 999, 1000):
            acc = _crc32c_sliced(data[:split])
            acc = _crc32c_sliced(data[split:], acc)
            assert acc == _crc32c_bytewise(data)

    def test_public_entrypoint_uses_equivalent_path(self):
        data = bytes(range(256)) * 3
        assert crc32c(data) == _crc32c_bytewise(data)


ROW = checksum._ROW
MIN = checksum._VECTOR_MIN
STEP_ROWS = checksum._STEP_ROWS
STEP = STEP_ROWS * ROW


class TestVectorEquivalence:
    """The row-parallel NumPy path must match the bytewise oracle exactly."""

    # ``m * ROW + d``: around the scalar/vector crossover, around row counts
    # on either side of a power of two (the fold's leading slot), and around
    # one and two gather steps. ``d`` leaves a tail of every kind the scalar
    # loop sees: none, bytes only, one word, a word and a byte. The last
    # line is where the 4-byte-word kernel had its crossover and its gather
    # block; those lengths stay pinned.
    BOUNDARIES = sorted(
        {
            n + d
            for n in (MIN, MIN + 3 * ROW, 2 * MIN - ROW, 2 * MIN, 3 * MIN,
                      STEP - ROW, STEP, STEP + ROW, 2 * STEP, 2 * STEP + ROW, 3 * STEP,
                      1024, 1036, 2044, 2048, 3072, 4092, 4096, 4100, 8192, 12288)
            for d in (-1, 0, 1, 3, 4, 5)
        }
    )

    @pytest.mark.parametrize("length", BOUNDARIES)
    @pytest.mark.parametrize("value", [0, 0xDEADBEEF])
    def test_crossover_and_block_boundaries(self, length, value):
        data = _random_bytes(length, seed=length)
        buf = np.frombuffer(data, dtype=np.uint8)
        assert _crc32c_numpy(buf, value) == _crc32c_bytewise(data, value)

    @pytest.mark.parametrize("power", range(0, 21))
    def test_every_power_of_two_and_its_neighbours(self, power):
        for length in ((1 << power) - 1, 1 << power, (1 << power) + 1):
            data = _random_bytes(length, seed=power)
            buf = np.frombuffer(data, dtype=np.uint8)
            assert _crc32c_numpy(buf, 0) == _crc32c_bytewise(data)

    def test_vector_kernel_alone_on_whole_rows(self):
        for rows in (1, 2, 3, 63, 64, 65, 200, 1023, 1024, 1025):
            data = _random_bytes(rows * ROW, seed=rows)
            buf = np.frombuffer(data, dtype=np.uint8)
            assert _crc32c_vector(buf, 12345) == _crc32c_bytewise(data, 12345)

    @pytest.mark.parametrize("value", [1, 0x80000000, 0xDEADBEEF, 0xFFFFFFFF])
    def test_incoming_value_on_exactly_one_row(self, value):
        # Two registers, one fold: the value in front, advanced one row.
        for data in (bytes(ROW), _random_bytes(ROW, seed=value)):
            buf = np.frombuffer(data, dtype=np.uint8)
            assert _crc32c_vector(buf, value) == _crc32c_bytewise(data, value)

    def test_all_zero_and_all_one_buffers(self):
        # Zero rows leave zero registers: the fold must still advance the
        # incoming value through them.
        for fill in (b"\x00", b"\xff"):
            data = fill * (MIN + 21)
            buf = np.frombuffer(data, dtype=np.uint8)
            for value in (0, 1, 0xFFFFFFFF):
                assert _crc32c_numpy(buf, value) == _crc32c_bytewise(data, value)

    def test_three_mebibytes_of_zeros(self):
        data = bytes(3 << 20)
        buf = np.frombuffer(data, dtype=np.uint8)
        assert _crc32c_numpy(buf, 7) == _crc32c_bytewise(data, 7)

    # Hypothesis draws at most a few KiB of raw bytes per example, so the
    # large cases come from a drawn (length, seed) pair and the small ones
    # — where every byte is adversarial — from st.binary.
    @given(
        length=st.integers(0, 300_000),
        seed=st.integers(0, 2**32 - 1),
        value=st.integers(0, 2**32 - 1),
        cut=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_anywhere_chains_to_the_oracle(self, length, seed, value, cut):
        data = _random_bytes(length, seed)
        split = int(cut * length)
        a = np.frombuffer(data[:split], dtype=np.uint8)
        b = np.frombuffer(data[split:], dtype=np.uint8)
        whole = np.frombuffer(data, dtype=np.uint8)
        expected = _crc32c_bytewise(data, value)
        assert _crc32c_numpy(whole, value) == expected
        assert _crc32c_numpy(b, _crc32c_numpy(a, value)) == expected

    # Each half is some rows plus an offset, so it lands under _VECTOR_MIN
    # (scalar loop only), on one gather step or on several, and the split
    # is never on a row boundary: the second half's rows straddle the
    # first's.
    @given(
        rows_a=st.integers(0, 3 * STEP_ROWS),
        tail_a=st.integers(1, ROW - 1),
        rows_b=st.integers(0, 3 * STEP_ROWS),
        tail_b=st.integers(0, ROW - 1),
        seed=st.integers(0, 2**32 - 1),
        value=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_unaligned_split_chains_whichever_path_each_half_takes(
        self, rows_a, tail_a, rows_b, tail_b, seed, value
    ):
        split = rows_a * ROW + tail_a
        data = _random_bytes(split + rows_b * ROW + tail_b, seed)
        a = np.frombuffer(data[:split], dtype=np.uint8)
        b = np.frombuffer(data[split:], dtype=np.uint8)
        assert _crc32c_numpy(b, _crc32c_numpy(a, value)) == _crc32c_bytewise(data, value)

    @given(
        data=st.binary(max_size=2 * MIN),
        value=st.integers(0, 2**32 - 1),
        split=st.integers(0, 2 * MIN),
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_small_bytes(self, data, value, split):
        split = min(split, len(data))
        expected = _crc32c_bytewise(data, value)
        assert crc32c(data, value) == expected
        assert crc32c(data[split:], crc32c(data[:split], value)) == expected


class TestInputBuffers:
    DATA = _random_bytes(2 * MIN + 5, seed=3)

    def test_bytes_like_objects_agree(self):
        expected = _crc32c_bytewise(self.DATA)
        assert crc32c(bytearray(self.DATA)) == expected
        assert crc32c(memoryview(self.DATA)) == expected
        assert crc32c(memoryview(bytearray(self.DATA))[5:]) == _crc32c_bytewise(self.DATA[5:])
        assert crc32c(np.frombuffer(self.DATA, dtype=np.uint8)) == expected

    def test_strided_ndarray_hashes_its_c_order_bytes(self):
        arr = np.frombuffer(self.DATA, dtype=np.uint8)
        assert not arr[::2].flags.c_contiguous
        assert crc32c(arr[::2]) == _crc32c_bytewise(self.DATA[::2])
        grid = arr[: 2 * MIN].reshape(8, -1)
        assert crc32c(grid) == _crc32c_bytewise(self.DATA[: 2 * MIN])
        assert crc32c(grid.T) == _crc32c_bytewise(grid.T.tobytes())

    def test_wider_dtype_hashes_its_memory_bytes(self):
        arr = np.arange(900, dtype="<u4")
        assert crc32c(arr) == _crc32c_bytewise(arr.tobytes())
        assert crc32c(arr[::3]) == _crc32c_bytewise(arr[::3].tobytes())

    def test_contiguous_buffers_are_not_copied(self, monkeypatch):
        seen = []

        def spy(buf, value):
            seen.append(buf)
            return 0

        monkeypatch.setattr(checksum, "_crc32c_numpy", spy)
        arr = np.frombuffer(self.DATA, dtype=np.uint8)
        writable = bytearray(self.DATA)
        crc32c(arr)
        crc32c(writable)
        assert np.shares_memory(seen[0], arr)
        assert np.shares_memory(seen[1], np.frombuffer(writable, dtype=np.uint8))


class TestTables:
    def test_tables_stay_bounded_over_a_thousand_lengths(self):
        data = _random_bytes(70_000, seed=1000)
        buf = np.frombuffer(data, dtype=np.uint8)
        for length in range(69_000, 70_000):
            _crc32c_numpy(buf[:length], 0)
        _crc32c_numpy(np.zeros(3 << 20, dtype=np.uint8), 0)
        position, shifts = checksum._POSITION, checksum._SHIFTS
        assert len(shifts) <= 32
        assert position.nbytes + sum(s.nbytes for s in shifts) < 1 << 20
        # The leaf's table is what every gather step reads: L1-sized.
        assert position.nbytes == ROW << 10 <= 32 << 10
