"""Schedule executors: interval model vs slot model."""

import pytest

from repro.errors import PlanError
from repro.sim.transfer import (
    ChunkTransfer,
    StripeJob,
    safe_admission_cap,
    simulate_interval_schedule,
    simulate_slot_schedule,
)


def job(job_id, *rounds, acc=0):
    return StripeJob(
        job_id=job_id,
        rounds=[[ChunkTransfer((job_id, i, j), d) for j, d in enumerate(r)] for i, r in enumerate(rounds)],
        accumulator_slots=acc,
    )


class TestStripeJob:
    def test_validate_ok(self):
        job("a", [1.0, 2.0]).validate()

    def test_empty_round_rejected(self):
        j = StripeJob(job_id="x", rounds=[[]])
        with pytest.raises(PlanError):
            j.validate()

    def test_no_rounds_rejected(self):
        with pytest.raises(PlanError):
            StripeJob(job_id="x").validate()

    def test_duplicate_chunk_rejected(self):
        c = ChunkTransfer("same", 1.0)
        j = StripeJob(job_id="x", rounds=[[c], [c]])
        with pytest.raises(PlanError):
            j.validate()

    def test_negative_duration_rejected(self):
        with pytest.raises(PlanError):
            ChunkTransfer("x", -1.0)

    def test_counts(self):
        j = job("a", [1.0, 2.0], [3.0])
        assert j.chunk_count == 3
        assert j.max_round_size() == 2


class TestIntervalModel:
    def test_single_interval_serialises(self):
        jobs = [job("a", [2.0]), job("b", [3.0])]
        rep = simulate_interval_schedule(jobs, num_intervals=1)
        assert rep.total_time == 5.0

    def test_two_intervals_parallel(self):
        jobs = [job("a", [2.0]), job("b", [3.0])]
        rep = simulate_interval_schedule(jobs, num_intervals=2)
        assert rep.total_time == 3.0

    def test_round_time_is_max(self):
        rep = simulate_interval_schedule([job("a", [1.0, 5.0, 2.0])], 1)
        assert rep.total_time == 5.0

    def test_waits(self):
        rep = simulate_interval_schedule([job("a", [1.0, 5.0, 2.0])], 1)
        waits = sorted(r.wait for r in rep.records)
        assert waits == [0.0, 3.0, 4.0]
        assert rep.acwt == pytest.approx(7.0 / 3.0)

    def test_multi_round_sequential(self):
        rep = simulate_interval_schedule([job("a", [1.0, 2.0], [3.0, 1.0])], 1)
        assert rep.total_time == 5.0
        assert rep.rounds_per_job["a"] == 2

    def test_fifo_to_earliest_free(self):
        # jobs: 5 | 1 | 1 on two intervals: I0 gets 5; I1 gets 1 then 1.
        jobs = [job("a", [5.0]), job("b", [1.0]), job("c", [1.0])]
        rep = simulate_interval_schedule(jobs, 2)
        assert rep.total_time == 5.0
        assert rep.job_finish_times["c"] == 2.0

    def test_bad_intervals(self):
        with pytest.raises(PlanError):
            simulate_interval_schedule([job("a", [1.0])], 0)

    def test_empty_jobs(self):
        rep = simulate_interval_schedule([], 2)
        assert rep.total_time == 0.0
        assert rep.chunk_count == 0


class TestSlotModel:
    def test_matches_interval_for_uniform_fsr(self):
        # k-chunk single rounds, capacity 2k -> 2 concurrent, same makespan.
        jobs = [job(i, [1.0, 2.0]) for i in range(4)]
        slot = simulate_slot_schedule(jobs, capacity=4)
        interval = simulate_interval_schedule(jobs, num_intervals=2)
        assert slot.total_time == pytest.approx(interval.total_time)

    def test_capacity_limits_concurrency(self):
        jobs = [job(i, [1.0]) for i in range(4)]
        rep1 = simulate_slot_schedule(jobs, capacity=1)
        rep4 = simulate_slot_schedule(jobs, capacity=4)
        assert rep1.total_time == 4.0
        assert rep4.total_time == 1.0

    def test_accumulator_held_between_rounds(self):
        # One 2-round job with acc=1 on capacity 2: rounds of 1 chunk + acc.
        j = job("a", [1.0], [1.0], acc=1)
        rep = simulate_slot_schedule([j], capacity=2)
        assert rep.total_time == 2.0

    def test_job_exceeding_capacity_rejected(self):
        j = job("a", [1.0, 1.0, 1.0], acc=1)
        with pytest.raises(PlanError):
            simulate_slot_schedule([j], capacity=3)

    def test_max_concurrent_cap(self):
        jobs = [job(i, [1.0]) for i in range(4)]
        rep = simulate_slot_schedule(jobs, capacity=4, max_concurrent=1)
        assert rep.total_time == 4.0

    def test_utilization_reported(self):
        rep = simulate_slot_schedule([job("a", [1.0, 1.0])], capacity=4)
        assert rep.memory_utilization == pytest.approx(0.5)

    def test_deterministic(self):
        jobs = [job(i, [1.0 + i, 0.5], [2.0]) for i in range(6)]
        a = simulate_slot_schedule(jobs, capacity=5)
        b = simulate_slot_schedule(jobs, capacity=5)
        assert a.total_time == b.total_time
        assert [r.key for r in a.records] == [r.key for r in b.records]

    def test_psr_beats_fsr_with_slow_chunk(self):
        """The paper's core effect: a slow chunk holds fewer slots under PSR."""
        slow, fast = 8.0, 1.0
        # 4 stripes, k=4, one slow chunk each; capacity 8.
        fsr_jobs = [job(i, [slow, fast, fast, fast]) for i in range(4)]
        psr_jobs = [job(i, [slow], [fast, fast, fast], acc=1) for i in range(4)]
        t_fsr = simulate_slot_schedule(fsr_jobs, capacity=8).total_time
        t_psr = simulate_slot_schedule(psr_jobs, capacity=8).total_time
        assert t_psr < t_fsr


class TestSafeAdmissionCap:
    def test_no_accumulators_unbounded(self):
        jobs = [job(i, [1.0]) for i in range(10)]
        assert safe_admission_cap(jobs, 4) == 10

    def test_with_accumulators(self):
        jobs = [job(i, [1.0, 1.0], [1.0], acc=1) for i in range(10)]
        # max request = 2 + 1 = 3; cap = (8 - 3) // 1 + 1 = 6
        assert safe_admission_cap(jobs, 8) == 6

    def test_at_least_one(self):
        jobs = [job(0, [1.0, 1.0], [1.0], acc=1)]
        assert safe_admission_cap(jobs, 3) == 1

    def test_no_deadlock_under_stress(self):
        # Many multi-round accumulator jobs on tight memory must complete.
        jobs = [job(i, [1.0, 2.0], [3.0], [0.5, 0.5], acc=1) for i in range(30)]
        rep = simulate_slot_schedule(jobs, capacity=5)
        assert rep.rounds_per_job and len(rep.rounds_per_job) == 30
