"""PartialDecoder: the RecoverWithSomeShards analogue at PSR's core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.encoder import RSCode
from repro.ec.partial import PartialDecoder
from repro.errors import CodingError


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.fixture
def code():
    return RSCode(9, 6)


@pytest.fixture
def shards(code, rng):
    data = rng.integers(0, 256, size=6 * 128, dtype=np.uint8).tobytes()
    return code.encode(code.split(data))


SURVIVORS = [0, 2, 3, 5, 6, 8]
TARGETS = [1, 4, 7]


class TestLifecycle:
    def test_round_grouping_invariance(self, code, shards):
        """Any grouping of the k survivors into rounds gives the same bytes."""
        groupings = [
            [[0], [2], [3], [5], [6], [8]],                 # P_a = 1
            [[0, 2], [3, 5], [6, 8]],                       # P_a = 2
            [[0, 2, 3], [5, 6, 8]],                         # P_a = 3
            [[0, 2, 3, 5, 6, 8]],                           # FSR
            [[8, 0], [6, 2], [5, 3]],                       # arbitrary order
            [[0, 2, 3, 5, 6], [8]],                         # ragged
        ]
        reference = None
        for rounds in groupings:
            pd = PartialDecoder(code, SURVIVORS, TARGETS)
            for rnd in rounds:
                pd.feed({j: shards[j] for j in rnd})
            result = {t: pd.result(t) for t in TARGETS}
            if reference is None:
                reference = result
            for t in TARGETS:
                assert np.array_equal(result[t], reference[t]), (rounds, t)
        for t in TARGETS:
            assert np.array_equal(reference[t], shards[t])

    def test_pending_and_complete(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, [1])
        assert pd.pending == sorted(SURVIVORS)
        assert not pd.complete
        pd.feed({0: shards[0], 2: shards[2]})
        assert pd.pending == [3, 5, 6, 8]
        pd.feed({3: shards[3], 5: shards[5], 6: shards[6], 8: shards[8]})
        assert pd.complete
        assert pd.rounds_fed == 2

    def test_memory_footprint_is_target_count(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        pd.feed({0: shards[0]})
        assert pd.memory_chunks_held() == len(TARGETS)
        pd.feed({j: shards[j] for j in [2, 3, 5, 6, 8]})
        assert pd.memory_chunks_held() == len(TARGETS)

    def test_results_dict(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        pd.feed({j: shards[j] for j in SURVIVORS})
        results = pd.results()
        assert set(results) == set(TARGETS)
        for t in TARGETS:
            assert np.array_equal(results[t], shards[t])


class TestErrors:
    def test_result_before_complete(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, [1])
        pd.feed({0: shards[0]})
        with pytest.raises(CodingError):
            pd.result(1)

    def test_double_feed_rejected(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, [1])
        pd.feed({0: shards[0]})
        with pytest.raises(CodingError):
            pd.feed({0: shards[0]})

    def test_undeclared_shard_rejected(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, [1])
        with pytest.raises(CodingError):
            pd.feed({1: shards[1]})  # 1 is a target, not a survivor

    def test_empty_feed_rejected(self, code):
        pd = PartialDecoder(code, SURVIVORS, [1])
        with pytest.raises(CodingError):
            pd.feed({})

    def test_no_targets_rejected(self, code):
        with pytest.raises(CodingError):
            PartialDecoder(code, SURVIVORS, [])

    def test_duplicate_targets_rejected(self, code):
        with pytest.raises(CodingError):
            PartialDecoder(code, SURVIVORS, [1, 1])

    def test_target_in_survivors_rejected(self, code):
        with pytest.raises(CodingError):
            PartialDecoder(code, SURVIVORS, [0])

    def test_size_mismatch_rejected(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, [1])
        pd.feed({0: shards[0]})
        with pytest.raises(CodingError):
            pd.feed({2: shards[2][:-1]})

    def test_2d_shard_rejected(self, code):
        pd = PartialDecoder(code, SURVIVORS, [1])
        with pytest.raises(CodingError):
            pd.feed({0: np.zeros((2, 2), dtype=np.uint8)})

    @pytest.mark.parametrize(
        "bad",
        [
            {2: np.zeros(32, dtype=np.uint8)},  # wrong size
            {2: np.zeros((2, 64), dtype=np.uint8)},  # not 1-D
            {1: np.zeros(128, dtype=np.uint8)},  # not a declared survivor
        ],
    )
    def test_rejected_round_folds_nothing(self, code, shards, bad):
        """A round with one bad shard changes nothing, so it can be retried."""
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        with pytest.raises(CodingError):
            pd.feed({0: shards[0], **bad})
        assert pd.pending == SURVIVORS and pd.fed == [] and pd.rounds_fed == 0
        assert pd.memory_chunks_held() == 0
        pd.feed({0: shards[0], 2: shards[2]})
        pd.feed({j: shards[j] for j in SURVIVORS[2:]})
        for t in TARGETS:
            assert np.array_equal(pd.result(t), shards[t])

    def test_rejected_round_keeps_learned_chunk_size(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, [1])
        with pytest.raises(CodingError):
            pd.feed({0: shards[0][:32], 2: shards[2]})
        pd.feed({j: shards[j] for j in SURVIVORS})
        assert np.array_equal(pd.result(1), shards[1])

    def test_result_for_non_target(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, [1])
        pd.feed({j: shards[j] for j in SURVIVORS})
        with pytest.raises(CodingError):
            pd.result(4)

    def test_wrong_survivor_count(self, code):
        with pytest.raises(Exception):
            PartialDecoder(code, [0, 2, 3], [1])


class TestReplan:
    def test_salvages_fed_rounds(self, code, shards):
        """Swap a dead pending survivor mid-decode; fed chunks are kept.
        With ``[1, 4, 5]`` the dead shard joins the targets: a new target
        is rebuilt over the same system, ``k - t`` reads for the old ``t``."""
        for targets in ([1, 4], [1, 4, 5]):
            # Two targets leave shard 7 as a fresh replacement read.
            pd = PartialDecoder(code, SURVIVORS, [1, 4])
            pd.feed({j: shards[j] for j in [0, 2, 3]})
            # pending survivor 5 "dies": keep still-alive 6 and 8, bring in
            # fresh shard 7. The fed chunks stay folded into the accumulators.
            pd.replan([6, 8, 7, 0], targets)
            assert pd.pending == [0, 6, 7, 8]
            assert pd.targets == targets and 5 not in pd.survivor_ids
            pd.feed({j: shards[j] for j in [6, 8, 7, 0]})
            for t in targets:
                assert np.array_equal(pd.result(t), shards[t])

    def test_restart_takes_the_grown_targets(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, [1, 4])
        pd.feed({0: shards[0]})
        pd.restart([0, 2, 3, 6, 7, 8], [1, 4, 5])
        pd.feed({j: shards[j] for j in pd.pending})
        for t in (1, 4, 5):
            assert np.array_equal(pd.result(t), shards[t])

    def test_replan_wrong_read_count(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        pd.feed({j: shards[j] for j in [0, 2, 3]})
        with pytest.raises(CodingError):
            pd.replan([6, 8], TARGETS)

    def test_replan_duplicate_reads(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        pd.feed({j: shards[j] for j in [0, 2, 3]})
        with pytest.raises(CodingError):
            pd.replan([6, 6, 8], TARGETS)

    def test_replan_target_rejected(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        pd.feed({j: shards[j] for j in [0, 2, 3]})
        with pytest.raises(CodingError):
            pd.replan([6, 8, 1], TARGETS)  # 1 is a repair target

    def test_replan_out_of_range(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        pd.feed({j: shards[j] for j in [0, 2, 3]})
        with pytest.raises(CodingError):
            pd.replan([6, 8, 9], TARGETS)

    def test_replan_before_enough_fed_is_singular(self, code, shards):
        """With fewer than t fed chunks the accumulator rows are dependent."""
        pd = PartialDecoder(code, SURVIVORS, TARGETS)  # t = 3 targets
        pd.feed({0: shards[0]})  # only 1 fed < 3
        with pytest.raises(CodingError):
            pd.replan([2, 3, 5], TARGETS)

    def test_replan_all_fed_rereads_singular(self, code, shards):
        """Re-reading every fed shard duplicates rows -> singular."""
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        pd.feed({j: shards[j] for j in [0, 2, 3]})
        with pytest.raises(CodingError):
            pd.replan([0, 2, 3], TARGETS)

    def test_replan_mixed_reread_allowed(self, code, shards):
        """Re-reading a fed shard is fine when enough rounds are banked.

        With t targets and r re-reads the stacked system has full rank only
        when at least ``t + r`` chunks were fed — the accumulator rows plus
        the re-read rows must span beyond the targets' worth of fold-down.
        """
        pd = PartialDecoder(code, SURVIVORS, [1, 4])  # t = 2
        pd.feed({j: shards[j] for j in [0, 2, 3]})    # 3 fed >= t + 1 re-read
        pd.replan([6, 8, 5, 0], [1, 4])  # keep 6/8/5, re-read 0
        pd.feed({j: shards[j] for j in [6, 8, 5, 0]})
        for t in (1, 4):
            assert np.array_equal(pd.result(t), shards[t])

    def test_replan_impossible_when_all_parity_targeted(self, code, shards):
        """t = n - k leaves no fresh shard: losing an unfed survivor is fatal.

        Only 5 readable symbols remain (3 fed + 2 alive unfed < k), so
        every replacement read set is singular and callers must report the
        stripe as lost rather than loop forever.
        """
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        pd.feed({j: shards[j] for j in [0, 2, 3]})
        # survivor 5 died; candidates avoiding it all fail
        for reads in ([6, 8, 0], [6, 8, 2], [6, 8, 3]):
            with pytest.raises(CodingError):
                pd.replan(reads, TARGETS)

    def test_restart_discards_everything(self, code, shards):
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        pd.feed({j: shards[j] for j in [0, 2, 3]})
        pd.restart([0, 2, 3, 5, 6, 8], TARGETS)
        assert pd.pending == [0, 2, 3, 5, 6, 8]
        assert pd.fed == []
        pd.feed({j: shards[j] for j in [0, 2, 3, 5, 6, 8]})
        for t in TARGETS:
            assert np.array_equal(pd.result(t), shards[t])

    def test_restart_rejects_targets_as_survivors(self, code):
        pd = PartialDecoder(code, SURVIVORS, TARGETS)
        with pytest.raises(CodingError):
            pd.restart([0, 2, 3, 5, 6, 1], TARGETS)

    @given(seed=st.integers(0, 2**31 - 1), fed_count=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_replan_equals_direct_decode(self, seed, fed_count):
        """Property: salvage after any partial feed gives the exact shards."""
        rng = np.random.default_rng(seed)
        code = RSCode(9, 6)
        data = rng.integers(0, 256, size=6 * 32, dtype=np.uint8).tobytes()
        shards = code.encode(code.split(data))
        targets = sorted(rng.choice(9, size=2, replace=False).tolist())
        pool = [j for j in range(9) if j not in targets]
        survivors = pool[:6]
        spares = pool[6:]

        pd = PartialDecoder(code, survivors, targets)
        fed = survivors[:fed_count]
        pd.feed({j: shards[j] for j in fed})
        # the first not-yet-fed survivor dies; rebuild the read set from the
        # still-alive pending shards, the spare, then re-reads of fed shards
        dead = survivors[fed_count]
        alive_pending = survivors[fed_count + 1:]
        need = 6 - len(targets)
        replacement = (alive_pending + spares + fed)[:need]
        pd.replan(replacement, targets)
        assert dead not in pd.pending
        pd.feed({j: shards[j] for j in pd.pending})
        for t in targets:
            assert np.array_equal(pd.result(t), shards[t])


class TestEquivalenceWithFullDecode:
    @given(seed=st.integers(0, 2**31 - 1), pa=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_partial_equals_full(self, seed, pa):
        """Property: PSR partial sums == FSR full decode, any P_a, any data."""
        rng = np.random.default_rng(seed)
        code = RSCode(9, 6)
        data = rng.integers(0, 256, size=6 * 32, dtype=np.uint8).tobytes()
        shards = code.encode(code.split(data))
        lost = sorted(rng.choice(9, size=3, replace=False).tolist())
        survivors = [j for j in range(9) if j not in lost][:6]

        holed = [None if j in lost else shards[j] for j in range(9)]
        full = code.reconstruct(holed, targets=lost)

        pd = PartialDecoder(code, survivors, lost)
        for i in range(0, 6, pa):
            pd.feed({j: shards[j] for j in survivors[i : i + pa]})
        for t in lost:
            assert np.array_equal(pd.result(t), full[t])
            assert np.array_equal(pd.result(t), shards[t])
