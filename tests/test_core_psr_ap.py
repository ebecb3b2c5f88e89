"""HD-PSR-AP: the twice dimensionality reduction and plan construction."""

import numpy as np
import pytest

from repro.core.psr_ap import (
    ActivePreliminaryRepair,
    stripe_times_for_pa,
    window_makespan,
)
from repro.core.plans import plan_to_jobs
from repro.errors import ConfigurationError
from repro.sim.transfer import simulate_interval_schedule


class TestStripeTimesForPa:
    def test_fsr_block(self):
        L = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert stripe_times_for_pa(L, 4)[0] == 4.0

    def test_pa_one_is_sum(self):
        L = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert stripe_times_for_pa(L, 1)[0] == 10.0

    def test_block_maxima(self):
        L = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        # pa=2 on sorted row: blocks (1,2),(3,4),(5,6) -> maxima 2+4+6
        assert stripe_times_for_pa(L, 2)[0] == 12.0

    def test_ragged_final_block(self):
        L = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        # pa=2: (1,2),(3,4),(5) -> 2+4+5
        assert stripe_times_for_pa(L, 2)[0] == 11.0

    def test_bad_pa(self):
        with pytest.raises(ConfigurationError):
            stripe_times_for_pa(np.ones((1, 4)), 5)

    def test_matches_equation4_bruteforce(self):
        rng = np.random.default_rng(0)
        L = np.sort(rng.uniform(1, 5, size=(20, 9)), axis=1)
        for pa in range(1, 10):
            fast = stripe_times_for_pa(L, pa)
            slow = np.array([
                sum(row[i : i + pa].max() for i in range(0, 9, pa)) for row in L
            ])
            assert np.allclose(fast, slow)


class TestWindowMakespan:
    def test_single_machine_is_sum(self):
        assert window_makespan(np.array([1.0, 2.0, 3.0]), 1) == 6.0

    def test_all_parallel_is_max(self):
        assert window_makespan(np.array([1.0, 2.0, 3.0]), 3) == 3.0
        assert window_makespan(np.array([1.0, 2.0, 3.0]), 10) == 3.0

    def test_known_case(self):
        # d=[1,2,10], w=2: makespan = 11 (10 starts when 1 finishes)
        assert window_makespan(np.array([1.0, 2.0, 10.0]), 2) == 11.0

    def test_empty(self):
        assert window_makespan(np.array([]), 2) == 0.0

    def test_bad_pr(self):
        with pytest.raises(ConfigurationError):
            window_makespan(np.array([1.0]), 0)

    def test_matches_interval_simulation(self):
        """The closed form equals list-scheduling of ascending jobs."""
        from repro.sim.transfer import ChunkTransfer, StripeJob

        rng = np.random.default_rng(5)
        for trial in range(20):
            times = np.sort(rng.uniform(0.5, 10, size=rng.integers(1, 40)))
            pr = int(rng.integers(1, 6))
            jobs = [StripeJob(i, [[ChunkTransfer((i, 0), float(t))]]) for i, t in enumerate(times)]
            sim = simulate_interval_schedule(jobs, pr).total_time
            assert window_makespan(times, pr) == pytest.approx(sim), (trial, pr)


class TestSelection:
    def test_prefers_small_pa_with_scattered_slowers(self):
        """One slow chunk per stripe: small P_a isolates it, so AP avoids k."""
        rng = np.random.default_rng(1)
        L = rng.uniform(1.0, 1.2, size=(60, 8))
        L[:, 0] = 8.0  # every stripe has one very slow chunk
        algo = ActivePreliminaryRepair()
        pa, pr, candidates, _ = algo.select(L, c=16)
        assert pa < 8
        assert candidates[pa] == min(candidates.values())

    def test_uniform_times_prefer_large_pa(self):
        """Identical chunk times: waiting is free, rounds only add serialisation."""
        L = np.full((40, 6), 2.0)
        algo = ActivePreliminaryRepair()
        pa, _, candidates, _ = algo.select(L, c=12)
        # with all-equal times total transfer time is flat in pa under the
        # window model whenever pa divides k; argmin must be a minimiser
        assert candidates[pa] == min(candidates.values())

    def test_candidate_range(self):
        L = np.random.default_rng(0).uniform(1, 3, size=(10, 6))
        _, _, candidates, _ = ActivePreliminaryRepair().select(L, c=12)
        assert sorted(candidates) == list(range(2, 7))

    def test_selection_timed(self):
        L = np.random.default_rng(0).uniform(1, 3, size=(200, 12))
        _, _, _, seconds = ActivePreliminaryRepair().select(L, c=12)
        assert seconds > 0

    def test_pr_policy_floor(self):
        L = np.random.default_rng(0).uniform(1, 3, size=(10, 6))
        algo = ActivePreliminaryRepair(pr_policy="floor")
        pa, pr, _, _ = algo.select(L, c=12)
        assert pr == max(1, 12 // pa)


class TestPlan:
    def test_plan_valid_and_uniform(self):
        L = np.random.default_rng(2).uniform(1, 5, size=(30, 9))
        plan = ActivePreliminaryRepair().build_plan(L, c=18)
        plan.validate(9)
        pa = plan.pa
        for sp in plan.stripe_plans:
            assert all(len(r) == pa for r in sp.rounds[:-1])
            assert len(sp.rounds[-1]) <= pa

    def test_rounds_follow_sorted_order(self):
        L = np.array([[5.0, 1.0, 4.0, 2.0, 3.0, 6.0]])
        plan = ActivePreliminaryRepair().build_plan(L, c=6)
        cols = [c for r in plan.stripe_plans[0].rounds for c in r]
        times = [L[0, c] for c in cols]
        assert times == sorted(times)

    def test_admission_sorted_by_stripe_time(self):
        rng = np.random.default_rng(3)
        L = rng.uniform(1, 10, size=(20, 6))
        plan = ActivePreliminaryRepair().build_plan(L, c=12)
        pa = plan.pa
        sorted_rows = np.sort(L, axis=1)
        stripe_times = stripe_times_for_pa(sorted_rows, pa)
        admitted = [sp.stripe_index for sp in plan.stripe_plans]
        assert list(stripe_times[admitted]) == sorted(stripe_times)

    def test_predicted_T_matches_execution(self):
        """Interval-model execution of the plan reproduces the predicted T."""
        rng = np.random.default_rng(4)
        L = rng.uniform(1, 5, size=(50, 6))
        algo = ActivePreliminaryRepair()
        plan = algo.build_plan(L, c=12)
        jobs = plan_to_jobs(plan, L)
        sim = simulate_interval_schedule(jobs, plan.pr).total_time
        assert sim == pytest.approx(plan.metadata["predicted_T"])

    def test_accumulators_declared(self):
        L = np.random.default_rng(5).uniform(1, 5, size=(10, 6))
        plan = ActivePreliminaryRepair().build_plan(L, c=12)
        for sp in plan.stripe_plans:
            expected = 1 if sp.num_rounds > 1 else 0
            assert sp.accumulator_chunks == expected
