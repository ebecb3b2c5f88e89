"""Cross-module property-based tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivePreliminaryRepair,
    ActiveSlowerFirstRepair,
    FullStripeRepair,
    PassiveRepair,
    RepairContext,
    execute_plan,
)
from repro.core.psr_ap import window_makespan
from repro.ec.encoder import RSCode
from repro.ec.partial import PartialDecoder
from repro.sim.transfer import simulate_interval_schedule, simulate_slot_schedule


L_matrices = st.builds(
    lambda seed, s, k: np.random.default_rng(seed).uniform(0.5, 5.0, size=(s, k)),
    seed=st.integers(0, 2**31 - 1),
    s=st.integers(2, 25),
    k=st.integers(2, 10),
)


class TestPlanInvariants:
    @given(L=L_matrices, c_extra=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_every_algorithm_reads_each_chunk_once(self, L, c_extra):
        s, k = L.shape
        c = k + c_extra
        ctx = RepairContext(disk_ids=np.tile(np.arange(k), (s, 1)))
        for algo in (FullStripeRepair(), ActivePreliminaryRepair(), ActiveSlowerFirstRepair(), PassiveRepair()):
            plan = algo.build_plan(L, c, context=ctx)
            plan.validate(k)  # covers each column exactly once per stripe
            assert plan.num_stripes == s

    @given(L=L_matrices)
    @settings(max_examples=30, deadline=None)
    def test_total_transfer_work_is_invariant(self, L):
        """No scheme changes the amount of data moved, only the schedule."""
        s, k = L.shape
        c = 2 * k
        ctx = RepairContext(disk_ids=np.tile(np.arange(k), (s, 1)))
        busy = []
        for algo in (FullStripeRepair(), ActivePreliminaryRepair(), PassiveRepair()):
            plan = algo.build_plan(L, c, context=ctx)
            report = execute_plan(plan, L, c)
            busy.append(sum(r.duration for r in report.records))
        assert all(abs(b - busy[0]) < 1e-6 for b in busy)

    @given(L=L_matrices)
    @settings(max_examples=30, deadline=None)
    def test_makespan_lower_bound(self, L):
        """Makespan >= the slowest single chunk, always."""
        s, k = L.shape
        c = 2 * k
        ctx = RepairContext(disk_ids=np.tile(np.arange(k), (s, 1)))
        for algo in (FullStripeRepair(), ActiveSlowerFirstRepair()):
            plan = algo.build_plan(L, c, context=ctx)
            report = execute_plan(plan, L, c)
            assert report.total_time >= L.max() - 1e-9

    @given(L=L_matrices)
    @settings(max_examples=30, deadline=None)
    def test_acwt_non_negative_and_bounded(self, L):
        s, k = L.shape
        c = 2 * k
        plan = FullStripeRepair().build_plan(L, c)
        report = execute_plan(plan, L, c)
        assert 0 <= report.acwt <= L.max()


class TestSchedulerProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        s=st.integers(1, 15),
        pr=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_intervals_never_slower(self, seed, s, pr):
        from repro.sim.transfer import ChunkTransfer, StripeJob

        rng = np.random.default_rng(seed)
        jobs = [
            StripeJob(i, [[ChunkTransfer((i, j), float(d)) for j, d in enumerate(rng.uniform(0.5, 3, size=4))]])
            for i in range(s)
        ]
        t1 = simulate_interval_schedule(jobs, pr).total_time
        t2 = simulate_interval_schedule(jobs, pr + 1).total_time
        assert t2 <= t1 + 1e-9

    @given(seed=st.integers(0, 2**31 - 1), s=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_slot_capacity_monotone(self, seed, s):
        from repro.sim.transfer import ChunkTransfer, StripeJob

        rng = np.random.default_rng(seed)
        jobs = [
            StripeJob(i, [[ChunkTransfer((i, j), float(d)) for j, d in enumerate(rng.uniform(0.5, 3, size=3))]])
            for i in range(s)
        ]
        t_small = simulate_slot_schedule(jobs, capacity=3).total_time
        t_big = simulate_slot_schedule(jobs, capacity=9).total_time
        assert t_big <= t_small + 1e-9

    @given(times=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=50), pr=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_window_makespan_bounds(self, times, pr):
        arr = np.array(times)
        t = window_makespan(arr, pr)
        assert arr.max() - 1e-9 <= t <= arr.sum() + 1e-9
        if pr == 1:
            assert t == pytest.approx(arr.sum())


class TestCodingProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        nk=st.sampled_from([(6, 4), (9, 6), (5, 3), (14, 10)]),
        size=st.integers(1, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_encode_reconstruct_roundtrip(self, seed, nk, size):
        n, k = nk
        rng = np.random.default_rng(seed)
        code = RSCode(n, k)
        data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        shards = code.encode(code.split(data))
        lost = sorted(rng.choice(n, size=min(n - k, 3), replace=False).tolist())
        holed = [None if j in lost else shards[j] for j in range(n)]
        rebuilt = code.reconstruct(holed)
        assert code.join(rebuilt[:k], size) == data

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partial_decoder_any_round_sizes(self, seed):
        rng = np.random.default_rng(seed)
        code = RSCode(9, 6)
        data = rng.integers(0, 256, size=6 * 17, dtype=np.uint8).tobytes()
        shards = code.encode(code.split(data))
        lost = sorted(rng.choice(9, size=2, replace=False).tolist())
        survivors = [j for j in range(9) if j not in lost][:6]
        pd = PartialDecoder(code, survivors, lost)
        remaining = list(survivors)
        rng.shuffle(remaining)
        while remaining:
            take = int(rng.integers(1, len(remaining) + 1))
            batch, remaining = remaining[:take], remaining[take:]
            pd.feed({j: shards[j] for j in batch})
        for t in lost:
            assert np.array_equal(pd.result(t), shards[t])
