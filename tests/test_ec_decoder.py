"""Full-stripe reconstruction: the MDS property, targets, error paths."""

from itertools import combinations

import numpy as np
import pytest

from repro.ec.encoder import RSCode
from repro.ec.decoder import decode_matrix_for, reconstruction_coefficients
from repro.errors import CodingError, InsufficientShardsError
from repro.gf import gf_mat_mul
from repro.gf.matrix import gf_identity


@pytest.fixture
def rng():
    return np.random.default_rng(21)


@pytest.fixture
def code():
    return RSCode(6, 4)


@pytest.fixture
def shards(code, rng):
    data = rng.integers(0, 256, size=4 * 256, dtype=np.uint8).tobytes()
    return code.encode(code.split(data))


class TestDecodeMatrix:
    def test_data_survivors_give_identity(self, code):
        assert np.array_equal(decode_matrix_for(code, [0, 1, 2, 3]), gf_identity(4))

    def test_inverse_property(self, code):
        ids = [1, 3, 4, 5]
        dec = decode_matrix_for(code, ids)
        assert np.array_equal(gf_mat_mul(dec, code.matrix[ids]), gf_identity(4))

    def test_wrong_count(self, code):
        with pytest.raises(InsufficientShardsError):
            decode_matrix_for(code, [0, 1, 2])

    def test_duplicates_rejected(self, code):
        with pytest.raises(CodingError):
            decode_matrix_for(code, [0, 0, 1, 2])

    def test_out_of_range(self, code):
        with pytest.raises(CodingError):
            decode_matrix_for(code, [0, 1, 2, 9])


class TestReconstructionCoefficients:
    def test_rebuild_data_shard(self, code, shards):
        coeffs = reconstruction_coefficients(code, [1, 2, 3, 4], target=0)
        acc = np.zeros_like(shards[0])
        for sid, c in coeffs.items():
            from repro.gf import gf_mul_add_scalar

            gf_mul_add_scalar(acc, c, shards[sid])
        assert np.array_equal(acc, shards[0])

    def test_rebuild_parity_shard(self, code, shards):
        coeffs = reconstruction_coefficients(code, [0, 1, 2, 3], target=5)
        acc = np.zeros_like(shards[0])
        from repro.gf import gf_mul_add_scalar

        for sid, c in coeffs.items():
            gf_mul_add_scalar(acc, c, shards[sid])
        assert np.array_equal(acc, shards[5])

    def test_bad_target(self, code):
        with pytest.raises(CodingError):
            reconstruction_coefficients(code, [0, 1, 2, 3], target=6)


class TestCoefficientMemo:
    """Each ``(survivors, target)`` pattern is inverted once per code object."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        from repro.ec import decoder

        calls = []
        real = decoder.gf_mat_inv
        monkeypatch.setattr(
            decoder, "gf_mat_inv", lambda m: (calls.append(1), real(m))[1]
        )
        return calls

    @staticmethod
    def uncached(code, survivors, target):
        decode = decode_matrix_for(code, survivors)
        row = gf_mat_mul(code.matrix[target][None, :], decode)[0]
        return {sid: int(c) for sid, c in zip(survivors, row)}

    def test_every_pattern_of_rs_9_6_is_inverted_once_and_right(self, inversions):
        code = RSCode(9, 6)
        patterns = [
            (list(survivors), target)
            for survivors in combinations(range(9), 6)
            for target in range(9)
        ]
        first = [reconstruction_coefficients(code, s, t) for s, t in patterns]
        assert len(inversions) == len(patterns) == 84 * 9
        again = [reconstruction_coefficients(code, s, t) for s, t in patterns]
        assert len(inversions) == len(patterns)  # all served from the memo
        del inversions[:]
        for (survivors, target), got, cached in zip(patterns, first, again):
            assert got == cached == self.uncached(code, survivors, target)

    def test_the_dict_is_the_callers_own(self, code):
        coeffs = reconstruction_coefficients(code, [1, 2, 3, 4], 0)
        want = dict(coeffs)
        coeffs[1] ^= 0xFF
        coeffs.pop(2)
        assert reconstruction_coefficients(code, [1, 2, 3, 4], 0) == want

    def test_survivor_order_is_part_of_the_pattern(self, code):
        a = reconstruction_coefficients(code, [1, 2, 3, 4], 0)
        b = reconstruction_coefficients(code, [4, 3, 2, 1], 0)
        assert a == b and list(a) == [1, 2, 3, 4] and list(b) == [4, 3, 2, 1]

    def test_errors_are_not_memoised_away(self, code):
        for _ in range(2):
            with pytest.raises(CodingError):
                reconstruction_coefficients(code, [0, 1, 2, 3], target=6)
            with pytest.raises(InsufficientShardsError):
                reconstruction_coefficients(code, [0, 1, 2], target=4)

    def test_the_memo_is_bounded(self, monkeypatch):
        from repro.ec import decoder

        monkeypatch.setattr(decoder, "_MEMO_ENTRIES", 4)
        code = RSCode(6, 4)
        for survivors in combinations(range(6), 4):
            reconstruction_coefficients(code, list(survivors), 0)
            assert len(code._reconstruction_memo) <= 4

    def test_stripes_share_one_inversion_across_a_replan(
        self, shards, inversions
    ):
        """What the repair does: one decoder per stripe, same survivors and
        target; then a salvage replan (its own stacked system, not memoised)
        still lands on the original bytes."""
        from repro.ec.partial import PartialDecoder

        code = RSCode(6, 4)
        decoders = [PartialDecoder(code, [1, 2, 3, 4], [0]) for _ in range(5)]
        assert len(inversions) == 1
        for pd in decoders:
            pd.feed({1: shards[1], 2: shards[2]})
        salvaged = decoders[0].replan([3, 5, 1], [0])  # shard 4 died; 1 is re-read
        salvaged.feed({s: shards[s] for s in salvaged.pending})
        assert np.array_equal(salvaged.result(0), shards[0])
        for pd in decoders[1:]:
            pd.feed({3: shards[3], 4: shards[4]})
            assert np.array_equal(pd.result(0), shards[0])
        restarted = decoders[1].restart([2, 3, 4, 5], [0])
        restarted.feed({s: shards[s] for s in (2, 3, 4, 5)})
        assert np.array_equal(restarted.result(0), shards[0])


class TestReconstructMDS:
    def test_any_two_erasures(self, code, shards):
        """Exhaustive MDS check: every erasure pattern up to m=2 decodes."""
        for lost in combinations(range(6), 2):
            holed = [None if j in lost else shards[j] for j in range(6)]
            rebuilt = code.reconstruct(holed)
            for j in range(6):
                assert np.array_equal(rebuilt[j], shards[j]), (lost, j)

    def test_single_erasure(self, code, shards):
        for lost in range(6):
            holed = [None if j == lost else shards[j] for j in range(6)]
            rebuilt = code.reconstruct(holed)
            assert np.array_equal(rebuilt[lost], shards[lost])

    def test_three_erasures_unrecoverable(self, code, shards):
        holed = [None, None, None] + list(shards[3:])
        with pytest.raises(InsufficientShardsError):
            code.reconstruct(holed)

    def test_targets_subset(self, code, shards):
        holed = [None, shards[1], None, shards[3], shards[4], shards[5]]
        out = code.reconstruct(holed, targets=[0])
        assert np.array_equal(out[0], shards[0])
        assert out[2] is None  # not requested

    def test_target_not_missing_rejected(self, code, shards):
        with pytest.raises(CodingError):
            code.reconstruct(list(shards), targets=[0])

    def test_nothing_missing_noop(self, code, shards):
        out = code.reconstruct(list(shards))
        for a, b in zip(out, shards):
            assert np.array_equal(a, b)

    def test_wrong_length(self, code, shards):
        with pytest.raises(CodingError):
            code.reconstruct(list(shards[:5]))

    def test_differing_sizes_rejected(self, code, shards):
        holed = list(shards)
        holed[0] = None
        holed[1] = np.zeros(7, dtype=np.uint8)
        with pytest.raises(CodingError):
            code.reconstruct(holed)


class TestLargerCode:
    def test_14_10_max_erasures(self, rng):
        code = RSCode(14, 10)
        data = rng.integers(0, 256, size=10 * 64, dtype=np.uint8).tobytes()
        shards = code.encode(code.split(data))
        lost = [0, 4, 9, 13]
        holed = [None if j in lost else shards[j] for j in range(14)]
        rebuilt = code.reconstruct(holed)
        for j in lost:
            assert np.array_equal(rebuilt[j], shards[j])
