"""RepairPlan / StripePlan invariants and the job adapter."""

import json

import numpy as np
import pytest

from repro.core.plans import RepairPlan, StripePlan, plan_to_jobs
from repro.errors import PlanError


def plan_for(k, rounds_per_stripe, s=2, acc=1):
    plans = [
        StripePlan(stripe_index=i, rounds=[list(r) for r in rounds_per_stripe], accumulator_chunks=acc)
        for i in range(s)
    ]
    return RepairPlan(algorithm="test", stripe_plans=plans, pa=None, pr=None)


class TestStripePlan:
    def test_valid(self):
        StripePlan(0, [[0, 1], [2, 3]]).validate(4)

    def test_missing_column(self):
        with pytest.raises(PlanError):
            StripePlan(0, [[0, 1], [2]]).validate(4)

    def test_duplicate_column(self):
        with pytest.raises(PlanError):
            StripePlan(0, [[0, 1], [1, 2, 3]]).validate(4)

    def test_empty_round(self):
        with pytest.raises(PlanError):
            StripePlan(0, [[0, 1], []]).validate(2)

    def test_negative_acc(self):
        with pytest.raises(PlanError):
            StripePlan(0, [[0]], accumulator_chunks=-1).validate(1)

    def test_peak_memory(self):
        sp = StripePlan(0, [[0, 1, 2], [3]], accumulator_chunks=1)
        assert sp.peak_memory_chunks() == 4
        single = StripePlan(0, [[0, 1, 2, 3]], accumulator_chunks=1)
        assert single.peak_memory_chunks() == 4  # acc not counted single-round

    def test_num_rounds(self):
        assert StripePlan(0, [[0], [1], [2]]).num_rounds == 3


class TestRepairPlan:
    def test_validate_ok(self):
        plan_for(4, [[0, 1], [2, 3]]).validate(4)

    def test_duplicate_stripe_rejected(self):
        plans = [StripePlan(0, [[0]]), StripePlan(0, [[0]])]
        plan = RepairPlan(algorithm="t", stripe_plans=plans)
        with pytest.raises(PlanError):
            plan.validate(1)

    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError):
            RepairPlan(algorithm="t", stripe_plans=[]).validate(4)

    def test_totals(self):
        plan = plan_for(4, [[0, 1], [2, 3]], s=3)
        assert plan.num_stripes == 3
        assert plan.total_rounds() == 6
        assert plan.peak_memory_chunks() == 3  # round 2 + acc 1


class TestPlanToJobs:
    def test_durations_from_L(self):
        L = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        plan = plan_for(4, [[0, 1], [2, 3]])
        jobs = plan_to_jobs(plan, L)
        assert jobs[0].rounds[0][0].duration == 1.0
        assert jobs[1].rounds[1][1].duration == 8.0

    def test_keys_from_survivor_ids(self):
        L = np.ones((1, 3))
        plan = RepairPlan("t", [StripePlan(0, [[2, 0, 1]])])
        jobs = plan_to_jobs(plan, L, stripe_indices=[42], survivor_ids=[[5, 7, 8]])
        keys = [c.key for c in jobs[0].rounds[0]]
        assert keys == [(42, 8), (42, 5), (42, 7)]
        assert jobs[0].job_id == 42

    def test_default_keys_are_columns(self):
        L = np.ones((1, 2))
        plan = RepairPlan("t", [StripePlan(0, [[1, 0]])])
        jobs = plan_to_jobs(plan, L)
        assert [c.key for c in jobs[0].rounds[0]] == [(0, 1), (0, 0)]

    def test_accumulators_uncharged_by_default(self):
        L = np.ones((2, 4))
        plans = [
            StripePlan(0, [[0, 1], [2, 3]], accumulator_chunks=1),
            StripePlan(1, [[0, 1, 2, 3]], accumulator_chunks=1),
        ]
        jobs = plan_to_jobs(RepairPlan("t", plans), L)
        assert all(j.accumulator_slots == 0 for j in jobs)

    def test_accumulators_charged_only_multi_round(self):
        L = np.ones((2, 4))
        plans = [
            StripePlan(0, [[0, 1], [2, 3]], accumulator_chunks=1),
            StripePlan(1, [[0, 1, 2, 3]], accumulator_chunks=1),
        ]
        jobs = plan_to_jobs(RepairPlan("t", plans), L, charge_accumulators=True)
        assert jobs[0].accumulator_slots == 1
        assert jobs[1].accumulator_slots == 0

    def test_disk_ids_attached(self):
        L = np.ones((1, 2))
        disks = np.array([[3, 9]])
        plan = RepairPlan("t", [StripePlan(0, [[0, 1]])])
        jobs = plan_to_jobs(plan, L, disk_ids=disks)
        assert [c.disk for c in jobs[0].rounds[0]] == [3, 9]

    def test_row_out_of_range(self):
        plan = RepairPlan("t", [StripePlan(5, [[0]])])
        with pytest.raises(PlanError):
            plan_to_jobs(plan, np.ones((2, 1)))

    def test_invalid_plan_caught(self):
        plan = RepairPlan("t", [StripePlan(0, [[0, 0]])])
        with pytest.raises(PlanError):
            plan_to_jobs(plan, np.ones((1, 2)))

    def test_1d_L_rejected(self):
        plan = RepairPlan("t", [StripePlan(0, [[0]])])
        with pytest.raises(PlanError):
            plan_to_jobs(plan, np.ones(3))


class TestPlanSerialization:
    def _plan(self):
        from repro.core import ActivePreliminaryRepair

        L = np.random.default_rng(0).uniform(1, 4, size=(12, 6))
        return ActivePreliminaryRepair().build_plan(L, c=12), L

    def test_roundtrip_dict(self):
        plan, _ = self._plan()
        clone = RepairPlan.from_dict(plan.to_dict())
        assert clone.algorithm == plan.algorithm
        assert clone.pa == plan.pa and clone.pr == plan.pr
        assert [sp.rounds for sp in clone.stripe_plans] == [
            sp.rounds for sp in plan.stripe_plans
        ]

    def test_roundtrip_file_and_execution_identical(self):
        from repro.core import execute_plan

        # the form a journal's begin record carries: to_dict through JSON
        plan, L = self._plan()
        loaded = RepairPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        a = execute_plan(plan, L, c=12)
        b = execute_plan(loaded, L, c=12)
        assert a.total_time == b.total_time
        assert a.acwt == b.acwt

    def test_metadata_numpy_values_serialised(self):
        plan, _ = self._plan()
        # AP metadata holds numpy floats; the journal's JSON must not choke
        payload = json.loads(json.dumps(plan.to_dict()))
        assert "candidate_T" in payload["metadata"]

    def test_malformed_dict(self):
        with pytest.raises(PlanError):
            RepairPlan.from_dict({"algorithm": "x"})
