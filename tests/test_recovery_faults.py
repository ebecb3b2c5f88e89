"""Hardened recovery: mid-repair failures, retries, hedging, data loss.

The acceptance scenario from the robustness milestone lives here: a second
disk dies mid-round during a cooperative multi-disk repair, the repair
salvages the accumulated partial sums instead of restarting every stripe,
and two identically-seeded runs produce byte-identical outcomes.
"""

import numpy as np
import pytest

from repro.core import ALGORITHMS, FullStripeRepair, ReadPolicy, recover_disk, recover_disks
from repro.ec.stripe import ChunkId
from repro.errors import StorageError
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.report import DataLossReport
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.obs import MetricsRegistry, use_registry

CHUNK = 2048
#: Seconds one fault-free chunk read takes on the default 100 MB/s profile.
READ_SECONDS = CHUNK / 100e6


def make_server(seed=7, num_disks=14, stripes=25):
    cfg = HDSSConfig(
        num_disks=num_disks, n=9, k=6, chunk_size=CHUNK,
        memory_chunks=12, spares=5, seed=seed,
    )
    server = HighDensityStorageServer(cfg)
    server.provision_stripes(stripes, with_data=True)
    return server


def capture_chunks(server):
    """Snapshot every chunk's bytes before any disk loses data."""
    out = {}
    for stripe in server.layout:
        for shard, disk in enumerate(stripe.disks):
            out[(stripe.index, shard)] = server.store.get(
                disk, ChunkId(stripe.index, shard)
            ).copy()
    return out


class TestFaultFree:
    def test_recover_disks_certifies(self):
        server = make_server()
        originals = capture_chunks(server)
        server.fail_disk(0)
        server.fail_disk(1)
        result = recover_disks(server, FullStripeRepair(), [0, 1])
        assert result.certified
        assert result.loss is None
        for (si, shard, spare) in result.data_path.writebacks:
            rebuilt = server.store.get(spare, ChunkId(si, shard))
            assert np.array_equal(rebuilt, originals[(si, shard)])

    def test_recover_disks_rejects_healthy_disk(self):
        server = make_server()
        server.fail_disk(0)
        with pytest.raises(StorageError):
            recover_disks(server, FullStripeRepair(), [0, 1])

    def test_recover_disks_rejects_empty_list(self):
        server = make_server()
        with pytest.raises(StorageError):
            recover_disks(server, FullStripeRepair(), [])


class TestMidRepairCasualty:
    """The scripted scenario: a second disk dies during cooperative repair."""

    # Disk 7 dies under a stripe that has yet to read it: that stripe
    # salvages its partial sums. (Every stripe that starts later has lost
    # the disk's chunk already and rebuilds it with the rest, no salvage.)
    SCHEDULE = FaultSchedule([
        FaultEvent(at=2 * READ_SECONDS, kind="disk_fail", disk=7),
    ])

    def run_once(self, algo="fsr"):
        server = make_server()
        originals = capture_chunks(server)
        server.fail_disk(0)
        server.fail_disk(1)
        result = recover_disks(
            server, ALGORITHMS[algo](), [0, 1], faults=self.SCHEDULE
        )
        return server, originals, result

    def test_completes_with_structured_report(self):
        server, originals, result = self.run_once()
        loss = result.loss
        assert isinstance(loss, DataLossReport)
        # every affected stripe got exactly one outcome
        assert set(loss.stripes) == set(result.outcome.stripe_indices)
        assert loss.faults_injected.get("disk_fail") == 1

    def test_salvage_beats_full_rerepair(self):
        _, _, result = self.run_once()
        loss = result.loss
        assert loss.replans > 0
        assert loss.salvaged_chunks > 0
        # the headline claim: re-planning re-reads fewer chunks than
        # repairing the affected stripes from scratch would
        k = 6
        assert loss.reread_chunks < k * (loss.replans + loss.fresh_restarts)

    def test_rebuilt_bytes_exact(self):
        server, originals, result = self.run_once()
        for (si, shard, spare) in result.data_path.writebacks:
            rebuilt = server.store.get(spare, ChunkId(si, shard))
            assert np.array_equal(rebuilt, originals[(si, shard)]), (si, shard)

    def test_lost_stripes_excluded_from_scrub(self):
        server, _, result = self.run_once()
        if result.loss.has_loss:
            scrubbed = set(result.scrub.clean) | set(result.scrub.degraded) \
                | set(result.scrub.corrupt)
            assert not scrubbed & set(result.loss.lost)

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_every_algorithm_survives(self, algo):
        _, _, result = self.run_once(algo)
        assert isinstance(result.loss, DataLossReport)

    def test_byte_identical_across_runs(self):
        server_a, _, a = self.run_once()
        server_b, _, b = self.run_once()
        assert a.loss.summary() == b.loss.summary()
        assert a.data_path.writebacks == b.data_path.writebacks
        assert a.data_path.modeled_seconds == b.data_path.modeled_seconds
        for (si, shard, spare) in a.data_path.writebacks:
            assert np.array_equal(
                server_a.store.get(spare, ChunkId(si, shard)),
                server_b.store.get(spare, ChunkId(si, shard)),
            )

    def test_obs_counters_recorded(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            self.run_once()
        assert registry.counter(
            "hdpsr_faults_injected_total", ""
        ).labels(kind="disk_fail").value == 1
        assert registry.counter("hdpsr_replans_total", "").value > 0
        assert registry.counter("hdpsr_chunks_salvaged_total", "").value > 0


class TestDataLoss:
    def test_too_many_failures_reported_not_raised(self):
        # n - k = 3 tolerance; three more deaths mid-repair overwhelm it
        schedule = FaultSchedule([
            FaultEvent(at=READ_SECONDS, kind="disk_fail", disk=4),
            FaultEvent(at=2 * READ_SECONDS, kind="disk_fail", disk=5),
            FaultEvent(at=3 * READ_SECONDS, kind="disk_fail", disk=6),
        ])
        server = make_server()
        server.fail_disk(0)
        server.fail_disk(1)
        result = recover_disks(
            server, FullStripeRepair(), [0, 1], faults=schedule
        )
        loss = result.loss
        assert loss.has_loss
        assert loss.exit_code == 3
        assert not result.certified
        # the non-lost stripes were still rescued
        assert len(loss.recovered) + len(loss.replanned) > 0

    def test_sector_error_on_survivor_still_recovers(self):
        server = make_server()
        server.fail_disk(0)
        # poison a surviving chunk of a stripe that disk 0's repair touches
        si = server.layout.stripe_set(0)[0]
        stripe = server.layout[si]
        shard = next(j for j, d in enumerate(stripe.disks) if d != 0)
        schedule = FaultSchedule([
            FaultEvent(at=0.0, kind="sector_error", disk=stripe.disks[shard],
                       stripe=si, shard=shard),
        ])
        result = recover_disk(
            server, FullStripeRepair(), 0, faults=schedule
        )
        assert isinstance(result.loss, DataLossReport)
        # one bad sector leaves >= k readable shards; nothing is lost
        assert not result.loss.has_loss


class TestReadPolicy:
    def test_timeout_and_retry_ride_out_hang(self):
        schedule = FaultSchedule([
            FaultEvent(at=0.0, kind="hang", disk=2, duration=0.01),
        ])
        server = make_server()
        server.fail_disk(0)
        policy = ReadPolicy(timeout_seconds=10 * READ_SECONDS, max_retries=4,
                            backoff_base=0.005, backoff_cap=0.02)
        result = recover_disk(
            server, FullStripeRepair(), 0, faults=schedule, policy=policy
        )
        loss = result.loss
        assert not loss.has_loss  # slowness never loses data
        if loss.timeouts:
            assert loss.retries > 0

    def test_hedge_moves_read_to_another_survivor(self):
        schedule = FaultSchedule([
            FaultEvent(at=0.0, kind="slow", disk=2, factor=1e6, duration=60.0),
        ])
        server = make_server()
        server.fail_disk(0)
        policy = ReadPolicy(
            timeout_seconds=10 * READ_SECONDS, max_retries=1,
            backoff_base=1e-6, backoff_cap=1e-5, hedge=True,
        )
        result = recover_disk(
            server, FullStripeRepair(), 0, faults=schedule, policy=policy
        )
        loss = result.loss
        assert not loss.has_loss
        # hedging only fires when the slow disk was actually drawn on
        if loss.timeouts:
            assert loss.hedged_reads > 0

    def test_policy_without_faults_is_clean(self):
        server = make_server()
        server.fail_disk(0)
        policy = ReadPolicy(timeout_seconds=1.0)
        result = recover_disk(server, FullStripeRepair(), 0, policy=policy)
        assert result.certified
        assert result.loss is not None
        assert result.loss.summary()["exit_code"] == 0
