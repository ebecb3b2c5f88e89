"""The sans-I/O stripe-repair core alone: no store, no event loop, no clock.

Every case drives :class:`StripeRepair` the way a driver would — ask for a
round, feed what "was read", report a fault with the shards that are
"readable now" — with the chunks coming from a plain dict.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.plans import StripePlan
from repro.core.stripe_repair import (
    CONTINUE,
    FORCE,
    READ_OK,
    READ_RETRY,
    READ_SLOW,
    ReadPolicy,
    ShardFault,
    StripeRepair,
    readable_shards,
    rounds_of,
)
from repro.ec.encoder import RSCode
from repro.ec.stripe import ChunkId, Stripe
from repro.errors import DiskFailedError
from repro.faults.report import LOST, RECOVERED, REPLANNED

CODE = RSCode(5, 3)
SIZE = 64
SHARDS = CODE.encode(
    CODE.split(np.random.default_rng(3).integers(0, 256, 3 * SIZE, dtype=np.uint8).tobytes())
)
SURVIVORS = [1, 2, 3]  # shard 0 is lost, shard 4 is the spare survivor
TARGET = 0
ONE_ROUND = StripePlan(0, [[0, 1, 2]])
TWO_ROUNDS = StripePlan(0, [[0], [1, 2]], accumulator_chunks=1)


def fresh(plan=ONE_ROUND):
    return StripeRepair.fresh(CODE, SURVIVORS, [TARGET], plan, SIZE, [1, 2, 3, 4])


def chunks(ids):
    return {s: SHARDS[s] for s in ids}


def dead(shard):
    return ShardFault(shard, DiskFailedError(f"shard {shard}"))


def finish(repair):
    """Read every remaining round fault-free; return the rebuilt target."""
    while rnd := repair.next_round():
        repair.feed(chunks(rnd))
    return repair.decoder.result(TARGET)


def counters(repair):
    return (repair.replans, repair.fresh_restarts, repair.salvaged_chunks,
            repair.hedged_reads)


class TestConstruction:
    @pytest.mark.parametrize("plan, rounds", [
        (ONE_ROUND, [[1, 2, 3]]),
        (TWO_ROUNDS, [[1], [2, 3]]),
    ])
    def test_fresh_serves_the_plans_rounds_as_shard_ids(self, plan, rounds):
        repair = fresh(plan)
        served = []
        while rnd := repair.next_round():
            served.append(rnd)
            repair.feed(chunks(rnd))
        assert served == rounds
        assert repair.outcome == RECOVERED
        assert counters(repair) == (0, 0, 0, 0)
        assert np.array_equal(repair.decoder.result(TARGET), SHARDS[TARGET])

    def test_a_lost_plan_survivor_is_swapped_in_its_column(self):
        """Shard 2 was lost after the plan: the stripe rebuilds it too, and
        reads the next readable shard in its place."""
        repair = StripeRepair.fresh(CODE, SURVIVORS, [0, 2], TWO_ROUNDS, SIZE, [1, 3, 4])
        assert repair.queue == [[1], [4, 3]]
        assert repair.decoder.targets == [0, 2]
        while rnd := repair.next_round():
            repair.feed(chunks(rnd))
        for target in (0, 2):
            assert np.array_equal(repair.decoder.result(target), SHARDS[target])

    def test_too_few_readable_at_start_is_lost_before_any_read(self):
        repair = StripeRepair.fresh(CODE, SURVIVORS, [0, 2, 3], ONE_ROUND, SIZE, [1, 4])
        assert repair.outcome == LOST
        assert repair.next_round() == []


class TestLadder:
    def test_salvage_keeps_the_fed_chunks(self):
        # With [0, 3], shard 3 is lost itself (its disk died, or it was
        # quarantined): the same pass rebuilds it too.
        for lost in ([TARGET], [TARGET, 3]):
            repair = fresh(TWO_ROUNDS)
            repair.feed(chunks(repair.next_round()))          # shard 1 is in
            assert repair.next_round() == [2, 3]
            repair.feed(chunks([2]))                          # 2 read, 3 died
            assert repair.on_fault(dead(3), readable=[1, 2, 4], lost=lost) == CONTINUE
            assert repair.outcome == REPLANNED
            assert counters(repair) == (1, 0, 2, 0)
            assert 3 not in repair.decoder.pending
            assert repair.decoder.targets == lost
            finish(repair)
            for target in lost:
                assert np.array_equal(repair.decoder.result(target), SHARDS[target])

    def test_rounds_after_a_replan_are_filtered_to_pending(self):
        repair = fresh(TWO_ROUNDS)
        repair.feed(chunks(repair.next_round()))
        repair.next_round()
        repair.feed(chunks([3]))
        repair.on_fault(dead(2), readable=[1, 3, 4], lost=[TARGET])
        # a stale round naming an already-fed shard must not re-read it
        repair.queue.insert(0, [3])
        rnd = repair.next_round()
        assert rnd and set(rnd) <= set(repair.decoder.pending)

    def test_singular_salvage_restarts_from_scratch(self):
        # With [0, 1] the dead shard is lost itself: the restart rebuilds it.
        for lost in ([TARGET], [TARGET, 1]):
            repair = fresh()
            assert repair.next_round() == [1, 2, 3]
            # first read of the stripe dies: no partial sums to salvage
            assert repair.on_fault(dead(1), readable=[2, 3, 4], lost=lost) == CONTINUE
            assert repair.outcome == REPLANNED
            assert counters(repair) == (0, 1, 0, 0)
            assert repair.decoder.fed == []
            assert repair.decoder.targets == lost
            # re-planned rounds leave room for the accumulator: 3 - 1 = 2 wide
            assert repair.queue == [[2, 3], [4]]
            finish(repair)
            for target in lost:
                assert np.array_equal(repair.decoder.result(target), SHARDS[target])

    def test_fewer_than_k_readable_is_lost(self):
        repair = fresh()
        repair.next_round()
        assert repair.on_fault(dead(1), readable=[2, 3], lost=[TARGET]) == LOST
        assert repair.outcome == LOST
        assert repair.next_round() == []
        assert counters(repair) == (0, 0, 0, 0)

    def test_a_shard_that_died_is_never_planned_onto_again(self):
        repair = fresh()
        repair.next_round()
        # a store that only learns of corruption by reading still lists the
        # dead shards as readable; the ladder must not bounce between them
        assert repair.on_fault(dead(1), readable=[1, 2, 3, 4], lost=[TARGET]) == CONTINUE
        repair.feed(chunks([2, 3]))
        assert repair.on_fault(dead(4), readable=[1, 2, 3, 4], lost=[TARGET]) == LOST

    def test_a_hedge_never_returns_to_a_shard_it_gave_up_on(self):
        repair = fresh(TWO_ROUNDS)
        repair.feed(chunks(repair.next_round()))
        repair.next_round()
        # 2 is slow: hedged onto 4. Then 4 is slow as well: going back to 2
        # would ping-pong between two permanently slow disks forever.
        assert repair.on_fault(ShardFault(2), readable=[1, 3, 2, 4], lost=[TARGET]) == CONTINUE
        assert 4 in repair.decoder.pending
        repair.next_round()
        assert repair.on_fault(ShardFault(4), readable=[1, 3, 2, 4], lost=[TARGET]) == FORCE
        assert repair.hedged_reads == 1
        # a slow shard still has the data: once 3 dies it is a survivor again
        repair.feed(chunks([4]))
        assert repair.on_fault(dead(3), readable=[1, 2, 4], lost=[TARGET]) == CONTINUE
        assert 2 in repair.decoder.pending

    def test_slow_with_an_alternative_is_hedged(self):
        repair = fresh(TWO_ROUNDS)
        repair.feed(chunks(repair.next_round()))
        assert repair.next_round() == [2, 3]
        slow = ShardFault(2)
        assert not slow.dead
        assert repair.on_fault(slow, readable=[1, 3, 4, 2], lost=[TARGET]) == CONTINUE
        assert repair.outcome == REPLANNED
        assert counters(repair) == (1, 0, 1, 1)
        assert repair.decoder.pending == [3, 4]
        assert np.array_equal(finish(repair), SHARDS[TARGET])

    def test_slow_without_an_alternative_is_forced(self):
        repair = fresh()
        repair.next_round()
        repair.feed(chunks([2, 3]))  # a concurrent driver read the rest
        assert repair.on_fault(ShardFault(1), readable=[2, 3, 1], lost=[TARGET]) == FORCE
        assert repair.outcome == RECOVERED
        assert counters(repair) == (0, 0, 0, 0)
        repair.feed(chunks([1]))     # the driver forces the read through
        assert repair.next_round() == []
        assert np.array_equal(repair.decoder.result(TARGET), SHARDS[TARGET])

    def test_forced_shard_leaves_the_rest_of_its_round_queued(self):
        repair = fresh()
        repair.next_round()          # a sequential driver stopped at shard 1
        assert repair.on_fault(ShardFault(1), readable=[2, 3, 1], lost=[TARGET]) == FORCE
        repair.feed(chunks([1]))
        assert repair.next_round() == [2, 3]

    def test_slow_never_restarts(self):
        repair = fresh()
        repair.next_round()
        # nothing fed, so salvage is singular; a restart on [2, 3, 4] would
        # be possible, but a slow disk still has the data
        assert repair.on_fault(ShardFault(1), readable=[2, 3, 4, 1], lost=[TARGET]) == FORCE
        assert repair.fresh_restarts == 0
        assert repair.decoder.pending == [1, 2, 3]

    def test_forced_read_that_dies_goes_down_the_dead_ladder(self):
        repair = fresh()
        repair.next_round()
        repair.feed(chunks([2, 3]))
        assert repair.on_fault(ShardFault(1), readable=[2, 3, 1], lost=[TARGET]) == FORCE
        assert repair.on_fault(dead(1), readable=[2, 3], lost=[TARGET]) == LOST

    def test_counters_fold_into_a_stats_sink(self):
        repair = fresh(TWO_ROUNDS)
        repair.feed(chunks(repair.next_round()))
        repair.next_round()
        repair.on_fault(ShardFault(2), readable=[1, 3, 4], lost=[TARGET])
        sink = SimpleNamespace(replans=5, fresh_restarts=0, salvaged_chunks=1,
                               hedged_reads=0)
        repair.fold_into(sink)
        assert vars(sink) == dict(replans=6, fresh_restarts=0,
                                  salvaged_chunks=2, hedged_reads=1)


class TestReadPolicyDecision:
    BACKOFF = dict(backoff_base=0.5, backoff_cap=1.5)

    @pytest.mark.parametrize("policy, duration, attempt, expected", [
        # no timeout configured: every read is on time
        (ReadPolicy(), 1e9, 0, (READ_OK, 0.0)),
        # under (and exactly at) the timeout
        (ReadPolicy(timeout_seconds=2.0), 1.9, 0, (READ_OK, 0.0)),
        (ReadPolicy(timeout_seconds=2.0), 2.0, 0, (READ_OK, 0.0)),
        # over, retries left: pay the timeout plus the (capped) backoff
        (ReadPolicy(timeout_seconds=2.0, max_retries=3, **BACKOFF), 5.0, 0,
         (READ_RETRY, 2.5)),
        (ReadPolicy(timeout_seconds=2.0, max_retries=3, **BACKOFF), 5.0, 2,
         (READ_RETRY, 3.5)),
        # budget exhausted: force through, or hedge when enabled
        (ReadPolicy(timeout_seconds=2.0, max_retries=1), 5.0, 1, (FORCE, 2.0)),
        (ReadPolicy(timeout_seconds=2.0, max_retries=0), 5.0, 0, (FORCE, 2.0)),
        (ReadPolicy(timeout_seconds=2.0, max_retries=1, hedge=True), 5.0, 1,
         (READ_SLOW, 2.0)),
    ])
    def test_decide(self, policy, duration, attempt, expected):
        assert policy.decide(duration, attempt) == expected


class TestHelpers:
    @pytest.mark.parametrize("ids, per_round, expected", [
        ([1, 2, 3, 4, 5], 2, [[1, 2], [3, 4], [5]]),
        ([1, 2], 5, [[1, 2]]),
        ([1, 2], 0, [[1], [2]]),   # never an empty or infinite split
        ([], 3, []),
    ])
    def test_rounds_of(self, ids, per_round, expected):
        assert rounds_of(ids, per_round) == expected

    def test_readable_shards(self):
        stripe = Stripe(7, 5, 3, (10, 11, 12, 13, 14))
        unreadable = {(12, ChunkId(7, 2))}

        def disk(failed=False, slow=False):
            return SimpleNamespace(is_failed=failed, is_slow=slow)

        def quarantined(disk_id, chunk_id):
            return disk_id == 14

        server = SimpleNamespace(
            disks={10: disk(failed=True), 11: disk(slow=True), 12: disk(),
                   13: disk(), 14: disk()},
            store=SimpleNamespace(is_readable=lambda d, c: (d, c) not in unreadable),
        )
        # failed disk and unreadable chunk dropped; the slow disk goes last
        assert readable_shards(server, 7, stripe) == [3, 4, 1]
        assert readable_shards(server, 7, stripe, exclude=(3,)) == [4, 1]
        assert readable_shards(server, 7, stripe, skip=quarantined) == [3, 1]
