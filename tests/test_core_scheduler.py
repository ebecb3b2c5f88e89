"""Plan execution and single-disk repair orchestration."""

import numpy as np
import pytest

from repro.core import (
    ActivePreliminaryRepair,
    ActiveSlowerFirstRepair,
    ExecutionOptions,
    FullStripeRepair,
    PassiveRepair,
    execute_plan,
    repair_single_disk,
)
from repro.core.analysis import uniform_pa_plan
from repro.errors import ConfigurationError, StorageError
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import BimodalSlowProfile, UniformProfile


@pytest.fixture
def L():
    return np.random.default_rng(0).uniform(1, 4, size=(20, 6))


@pytest.fixture
def failed_server():
    cfg = HDSSConfig(
        num_disks=15, n=6, k=4, chunk_size=64 * 1024, memory_chunks=8, spares=2,
        profile=BimodalSlowProfile(100e6, ros=0.2, slow_factor=4.0), seed=9,
    )
    server = HighDensityStorageServer(cfg)
    server.provision_stripes(40)
    server.fail_disk(0)
    return server


class TestExecutePlan:
    def test_slot_vs_interval_models(self, L):
        plan = uniform_pa_plan(L, pa=2, pr=6)
        slot = execute_plan(plan, L, c=12, options=ExecutionOptions(model="slot"))
        interval = execute_plan(plan, L, c=12, options=ExecutionOptions(model="interval"))
        assert slot.total_time > 0 and interval.total_time > 0
        # slot model can be slower (slot contention) but never < the ideal
        # single-stripe bound
        assert slot.total_time >= max(
            sum(max(L[i, c] for c in rnd) for rnd in sp.rounds)
            for i, sp in enumerate(plan.stripe_plans)
        ) - 1e-9

    def test_bad_model_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionOptions(model="quantum")

    def test_pa_plan_without_pr_interval_model(self, L):
        """Plans with pr=None (PA-style) fall back to a derived interval count."""
        plan = uniform_pa_plan(L, pa=3, pr=4)
        plan.pr = None
        rep = execute_plan(plan, L, c=12, options=ExecutionOptions(model="interval"))
        assert rep.total_time > 0


class TestRepairSingleDisk:
    def test_requires_failed_disk(self, failed_server):
        with pytest.raises(StorageError):
            repair_single_disk(failed_server, FullStripeRepair(), 1)

    def test_all_algorithms_run(self, failed_server):
        algos = [FullStripeRepair(), ActivePreliminaryRepair(), ActiveSlowerFirstRepair(), PassiveRepair()]
        outcomes = {a.name: repair_single_disk(failed_server, a, 0) for a in algos}
        stripe_count = len(failed_server.layout.stripe_set(0))
        k = failed_server.config.k
        for name, out in outcomes.items():
            assert out.chunks_read == stripe_count * k, name
            assert out.transfer_time > 0, name
            assert len(out.stripe_indices) == stripe_count, name

    def test_psr_beats_fsr_with_slow_disks(self, failed_server):
        fsr = repair_single_disk(failed_server, FullStripeRepair(), 0)
        ap = repair_single_disk(failed_server, ActivePreliminaryRepair(), 0)
        as_ = repair_single_disk(failed_server, ActiveSlowerFirstRepair(), 0)
        pa = repair_single_disk(failed_server, PassiveRepair(), 0)
        assert ap.transfer_time < fsr.transfer_time
        assert as_.transfer_time < fsr.transfer_time
        assert pa.transfer_time <= fsr.transfer_time

    def test_acwt_improves(self, failed_server):
        fsr = repair_single_disk(failed_server, FullStripeRepair(), 0)
        ap = repair_single_disk(failed_server, ActivePreliminaryRepair(), 0)
        assert ap.acwt < fsr.acwt

    def test_probe_bytes_only_for_active(self, failed_server):
        assert repair_single_disk(failed_server, FullStripeRepair(), 0).probe_bytes == 0
        assert repair_single_disk(failed_server, PassiveRepair(), 0).probe_bytes == 0
        assert repair_single_disk(failed_server, ActivePreliminaryRepair(), 0).probe_bytes > 0

    def test_outcome_summary(self, failed_server):
        out = repair_single_disk(failed_server, FullStripeRepair(), 0)
        s = out.summary()
        assert s["algorithm"] == "fsr"
        assert s["transfer_time"] == out.transfer_time

    def test_deterministic_under_seed(self):
        def run():
            cfg = HDSSConfig(
                num_disks=12, n=6, k=4, chunk_size=64 * 1024, memory_chunks=8,
                profile=BimodalSlowProfile(100e6, ros=0.2), seed=5,
            )
            srv = HighDensityStorageServer(cfg)
            srv.provision_stripes(30)
            srv.fail_disk(2)
            return repair_single_disk(srv, ActivePreliminaryRepair(), 2, probe_noise=0.02)

        a, b = run(), run()
        assert a.transfer_time == b.transfer_time
        assert a.plan.pa == b.plan.pa

    def test_empty_disk_rejected(self):
        cfg = HDSSConfig(
            num_disks=12, n=6, k=4, chunk_size=1024, memory_chunks=8,
            profile=UniformProfile(1e6), seed=0,
        )
        srv = HighDensityStorageServer(cfg)
        srv.provision_stripes(0)
        srv.fail_disk(3)
        with pytest.raises(StorageError):
            repair_single_disk(srv, FullStripeRepair(), 3)
