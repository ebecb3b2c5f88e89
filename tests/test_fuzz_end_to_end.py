"""Randomised end-to-end fuzzing: random configs, failures, full recovery.

Each case builds a random (valid) server with real bytes, fails a random
set of disks within the code's tolerance, recovers with a random scheme,
and checks the global invariants: every object readable, every rebuilt
chunk byte-exact, memory bound respected, placement consistent.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ALGORITHMS,
    FullStripeRepair,
    ReadPolicy,
    cooperative_multi_disk_repair,
    recover_disk,
)
from repro.faults import generate_fault_schedule
from repro.faults.report import DataLossReport
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import BimodalSlowProfile


configs = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "nk": st.sampled_from([(5, 3), (6, 4), (9, 6)]),
    "num_disks": st.integers(10, 16),
    "stripes": st.integers(4, 14),
    "algo": st.sampled_from(sorted(ALGORITHMS)),
    "ros": st.sampled_from([0.0, 0.1, 0.25]),
})


def build(params):
    n, k = params["nk"]
    cfg = HDSSConfig(
        num_disks=params["num_disks"], n=n, k=k, chunk_size=2048,
        memory_chunks=2 * k, spares=3,
        profile=BimodalSlowProfile(100e6, ros=params["ros"], slow_factor=4.0),
        placement="random", seed=params["seed"],
    )
    server = HighDensityStorageServer(cfg)
    server.provision_stripes(params["stripes"], with_data=True)
    return server


class TestSingleDiskFuzz:
    @given(params=configs)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_single_disk_recovery(self, params):
        server = build(params)
        rng = np.random.default_rng(params["seed"])
        victim = int(rng.integers(0, params["num_disks"]))
        if not server.layout.stripe_set(victim):
            return  # disk holds nothing; nothing to assert
        originals = {
            idx: server.read_object(idx) for idx in range(len(server.layout))
        }
        server.fail_disk(victim)
        result = recover_disk(server, ALGORITHMS[params["algo"]](), victim)
        assert result.certified
        assert result.data_path.peak_memory_chunks <= server.config.memory_chunks
        for idx, data in originals.items():
            assert server.read_object(idx) == data
        # placement no longer references the dead disk
        assert server.layout.stripe_set(victim) == []


class TestMultiDiskFuzz:
    @given(params=configs, extra=st.integers(0, 1))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_multi_disk_cooperative(self, params, extra):
        server = build(params)
        n, k = params["nk"]
        m = n - k
        rng = np.random.default_rng(params["seed"] + 1)
        count = min(m, 2 + extra)
        victims = sorted(
            int(d) for d in rng.choice(params["num_disks"], size=count, replace=False)
        )
        victims = [v for v in victims if server.layout.stripe_set(v)]
        if not victims:
            return
        for v in victims:
            server.fail_disk(v)
        out = cooperative_multi_disk_repair(server, FullStripeRepair, victims)
        affected = server.stripes_needing_repair(victims)
        assert out.stripes_per_phase == [len(affected)]
        assert out.chunks_read == len(affected) * k
        assert out.chunks_rebuilt == sum(
            len(server.layout[si].lost_shards(victims)) for si in affected
        )
        # every object still readable via degraded reads
        for idx in range(len(server.layout)):
            assert server.read_object(idx)


class TestFaultedFuzz:
    """Random faults interleaved with recovery: the run must end in either a
    certified recovery or an explicit DataLossReport — never an unhandled
    exception."""

    @given(params=configs, fault_seed=st.integers(0, 10_000),
           hardened=st.booleans())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_faults_never_raise(self, params, fault_seed, hardened):
        server = build(params)
        rng = np.random.default_rng(params["seed"])
        victim = int(rng.integers(0, params["num_disks"]))
        if not server.layout.stripe_set(victim):
            return
        server.fail_disk(victim)
        # fault times must land inside the repair's (tiny) modeled window
        read_seconds = server.config.chunk_size / 100e6
        schedule = generate_fault_schedule(
            seed=fault_seed,
            num_events=int(np.random.default_rng(fault_seed).integers(1, 6)),
            horizon=30 * read_seconds,
            num_disks=params["num_disks"],
            num_stripes=params["stripes"],
            num_shards=params["nk"][0],
            max_disk_fails=2,
            duration_range=(read_seconds, 10 * read_seconds),
        )
        policy = None
        if hardened:
            policy = ReadPolicy(
                timeout_seconds=20 * read_seconds, max_retries=2,
                backoff_base=read_seconds, backoff_cap=5 * read_seconds,
                hedge=True,
            )
        result = recover_disk(
            server, ALGORITHMS[params["algo"]](), victim,
            faults=schedule, policy=policy,
        )
        loss = result.loss
        assert isinstance(loss, DataLossReport)
        # every repaired stripe has exactly one outcome
        assert set(loss.stripes) == set(result.outcome.stripe_indices)
        assert loss.exit_code == (3 if loss.has_loss else 0)
        if not loss.has_loss and not loss.degraded \
                and not result.scrub.degraded:
            assert result.certified
        # memory bound holds even under replans and retries
        assert result.data_path.peak_memory_chunks <= server.config.memory_chunks
        # non-lost stripes remain readable (>= k shards survive somewhere)
        lost = set(loss.lost)
        for stripe in server.layout:
            if stripe.index in set(result.outcome.stripe_indices) - lost:
                healthy = sum(
                    1 for d in stripe.disks if not server.disk(d).is_failed
                )
                assert healthy >= server.config.k
