"""Multi-disk repair: naive vs cooperative, including the Figure 6 example."""

import pytest

from repro.core import (
    ActiveSlowerFirstRepair,
    FullStripeRepair,
    cooperative_multi_disk_repair,
    naive_multi_disk_repair,
)
from repro.ec.stripe import Stripe, StripeLayout
from repro.errors import StorageError
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import BimodalSlowProfile, UniformProfile


def fig6_server():
    """The Figure-6 topology: (n,k)=(5,3), six disks, three stripes.

    Failed disk 3 (the paper's Disk4) holds a chunk of all three stripes;
    failed disk 4 (Disk5) holds chunks of stripes 0 and 2 — so naive repair
    reads 9 + 6 = 15 chunks while cooperative reads 3 x 3 = 9.
    """
    cfg = HDSSConfig(
        num_disks=6, n=5, k=3, chunk_size=1024, memory_chunks=6, spares=2,
        profile=UniformProfile(1e6), seed=0,
    )
    server = HighDensityStorageServer(cfg)
    layout = StripeLayout()
    layout.add(Stripe(index=0, n=5, k=3, disks=(0, 1, 2, 3, 4)))
    layout.add(Stripe(index=1, n=5, k=3, disks=(0, 1, 2, 3, 5)))
    layout.add(Stripe(index=2, n=5, k=3, disks=(0, 1, 3, 4, 5)))
    server.layout = layout
    return server


class TestFigure6Example:
    def test_naive_reads_15_chunks(self):
        server = fig6_server()
        server.fail_disk(3)
        server.fail_disk(4)
        out = naive_multi_disk_repair(server, FullStripeRepair, [3, 4])
        assert out.chunks_read == 15
        assert out.stripes_per_phase == [3, 2]  # disk3: {0,1,2}; disk4: {0,2}
        assert out.chunks_rebuilt == 5  # stripes 0 and 2 decoded twice

    def test_cooperative_reads_9_chunks(self):
        server = fig6_server()
        server.fail_disk(3)
        server.fail_disk(4)
        out = cooperative_multi_disk_repair(server, FullStripeRepair, [3, 4])
        assert out.chunks_read == 9
        assert out.stripes_per_phase == [3]
        assert out.chunks_rebuilt == 5  # S0 lost 2, S1 lost 1, S2 lost 2

    def test_cooperative_never_reads_more(self):
        server = fig6_server()
        server.fail_disk(3)
        server.fail_disk(4)
        naive = naive_multi_disk_repair(server, FullStripeRepair, [3, 4])
        coop = cooperative_multi_disk_repair(server, FullStripeRepair, [3, 4])
        assert coop.chunks_read <= naive.chunks_read
        assert coop.total_time <= naive.total_time + 1e-9


@pytest.fixture
def multi_failed_server():
    cfg = HDSSConfig(
        num_disks=18, n=9, k=6, chunk_size=64 * 1024, memory_chunks=12, spares=3,
        profile=BimodalSlowProfile(100e6, ros=0.15, slow_factor=4.0), seed=4,
    )
    server = HighDensityStorageServer(cfg)
    server.provision_stripes(60)
    for d in (0, 1, 2):
        server.fail_disk(d)
    return server


class TestAtScale:
    def test_cooperative_faster(self, multi_failed_server):
        naive = naive_multi_disk_repair(multi_failed_server, FullStripeRepair, [0, 1, 2])
        coop = cooperative_multi_disk_repair(multi_failed_server, FullStripeRepair, [0, 1, 2])
        assert coop.total_time < naive.total_time
        assert coop.chunks_read < naive.chunks_read

    def test_cooperative_with_hdpsr(self, multi_failed_server):
        naive = naive_multi_disk_repair(multi_failed_server, ActiveSlowerFirstRepair, [0, 1, 2])
        coop = cooperative_multi_disk_repair(multi_failed_server, ActiveSlowerFirstRepair, [0, 1, 2])
        assert coop.total_time < naive.total_time

    def test_union_equals_stripe_sets(self, multi_failed_server):
        coop = cooperative_multi_disk_repair(multi_failed_server, FullStripeRepair, [0, 1, 2])
        expected = multi_failed_server.layout.stripes_touching([0, 1, 2])
        assert coop.stripes_per_phase == [len(expected)]

    def test_single_disk_degenerate_case(self, multi_failed_server):
        """With one failed disk, naive == cooperative (same stripe set)."""
        naive = naive_multi_disk_repair(multi_failed_server, FullStripeRepair, [0])
        coop = cooperative_multi_disk_repair(multi_failed_server, FullStripeRepair, [0])
        assert naive.chunks_read == coop.chunks_read

    def test_healthy_disk_rejected(self, multi_failed_server):
        with pytest.raises(StorageError):
            naive_multi_disk_repair(multi_failed_server, FullStripeRepair, [0, 5])
        with pytest.raises(StorageError):
            cooperative_multi_disk_repair(multi_failed_server, FullStripeRepair, [5])

    def test_empty_failed_list_rejected(self, multi_failed_server):
        with pytest.raises(StorageError):
            naive_multi_disk_repair(multi_failed_server, FullStripeRepair, [])

    def test_duplicates_deduped(self, multi_failed_server):
        out = cooperative_multi_disk_repair(multi_failed_server, FullStripeRepair, [0, 0, 1, 2])
        assert out.failed_disks == [0, 1, 2]

    def test_summary(self, multi_failed_server):
        out = cooperative_multi_disk_repair(multi_failed_server, FullStripeRepair, [0, 1])
        s = out.summary()
        assert s["cooperative"] is True
        assert s["failed_disks"] == 2.0

    def test_time_to_safety_recorded(self, multi_failed_server):
        out = cooperative_multi_disk_repair(multi_failed_server, FullStripeRepair, [0, 1, 2])
        assert out.time_to_safety is not None
        assert 0 < out.time_to_safety <= out.total_time + 1e-9

    def test_vulnerability_order_secures_exposed_stripes_sooner(self, multi_failed_server):
        default = cooperative_multi_disk_repair(
            multi_failed_server, FullStripeRepair, [0, 1, 2], order="default"
        )
        vuln = cooperative_multi_disk_repair(
            multi_failed_server, FullStripeRepair, [0, 1, 2], order="vulnerability"
        )
        # same work either way
        assert vuln.chunks_read == default.chunks_read
        assert vuln.total_time == pytest.approx(default.total_time, rel=0.1)
        # the most exposed stripes finish no later (usually much sooner)
        assert vuln.time_to_safety <= default.time_to_safety + 1e-9

    def test_vulnerability_order_admits_multi_loss_first(self, multi_failed_server):
        out = cooperative_multi_disk_repair(
            multi_failed_server, FullStripeRepair, [0, 1, 2], order="vulnerability"
        )
        report = out.reports[0]
        layout = multi_failed_server.layout
        lost = {si: len(layout[si].lost_shards([0, 1, 2]))
                for si in report.job_finish_times}
        max_lost = max(lost.values())
        if max_lost > 1:
            worst_latest = max(t for si, t in report.job_finish_times.items()
                               if lost[si] == max_lost)
            single_latest = max(t for si, t in report.job_finish_times.items()
                                if lost[si] == 1)
            assert worst_latest <= single_latest

    def test_unknown_order_rejected(self, multi_failed_server):
        with pytest.raises(StorageError):
            cooperative_multi_disk_repair(
                multi_failed_server, FullStripeRepair, [0, 1], order="alphabetical"
            )

    def test_savings_grow_with_failures(self):
        """More failed disks -> more shared stripes -> bigger cooperative win."""
        def ratio(num_failed):
            cfg = HDSSConfig(
                num_disks=14, n=9, k=6, chunk_size=64 * 1024, memory_chunks=12,
                spares=3, profile=UniformProfile(100e6), seed=4,
            )
            server = HighDensityStorageServer(cfg)
            server.provision_stripes(60)
            disks = list(range(num_failed))
            for d in disks:
                server.fail_disk(d)
            naive = naive_multi_disk_repair(server, FullStripeRepair, disks)
            coop = cooperative_multi_disk_repair(server, FullStripeRepair, disks)
            return coop.chunks_read / naive.chunks_read

        r2, r3 = ratio(2), ratio(3)
        assert r3 <= r2 <= 1.0
