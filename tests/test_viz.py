"""Text timeline visualisations."""

import pytest

from repro.core import ActivePreliminaryRepair, FullStripeRepair, execute_plan
from repro.errors import ConfigurationError
from repro.sim.metrics import build_report
from repro.sim.viz import memory_occupancy_series, render_memory_timeline
from repro.workloads import disk_heterogeneous_transfer_times


@pytest.fixture
def report():
    w, disks = disk_heterogeneous_transfer_times(30, 6, 18, ros=0.2, seed=0)
    plan = FullStripeRepair().build_plan(w.L, 12)
    return execute_plan(plan, w.L, 12, disk_ids=disks)


class TestOccupancySeries:
    def test_shapes(self, report):
        times, occ = memory_occupancy_series(report, buckets=40)
        assert times.shape == (40,) and occ.shape == (40,)

    def test_occupancy_bounded_by_capacity(self, report):
        _, occ = memory_occupancy_series(report, buckets=50)
        assert occ.max() <= 12 + 1e-6

    def test_total_slot_seconds_conserved(self, report):
        times, occ = memory_occupancy_series(report, buckets=200)
        width = report.total_time / 200
        integrated = float(occ.sum() * width)
        expected = sum(r.round_end - r.start for r in report.records)
        assert integrated == pytest.approx(expected, rel=0.02)

    def test_empty_report(self):
        rep = build_report([], {}, {})
        times, occ = memory_occupancy_series(rep)
        assert occ.size == 0

    def test_bad_buckets(self, report):
        with pytest.raises(ConfigurationError):
            memory_occupancy_series(report, buckets=0)


class TestRenderers:
    def test_memory_timeline_string(self, report):
        out = render_memory_timeline(report, capacity=12, width=40)
        assert out.startswith("memory |")
        assert "/12 slots" in out
        assert len(out.split("|")[1]) == 40

    def test_empty_timeline(self):
        rep = build_report([], {}, {})
        assert "empty" in render_memory_timeline(rep)

    def test_psr_flattens_occupancy(self):
        """Visual claim made checkable: PSR's occupancy has less idle-wait
        area relative to useful transfer than FSR (higher efficiency)."""
        w, disks = disk_heterogeneous_transfer_times(40, 6, 18, ros=0.2,
                                                     slow_factor=5.0, seed=2)
        fsr_rep = execute_plan(FullStripeRepair().build_plan(w.L, 12), w.L, 12, disk_ids=disks)
        ap_rep = execute_plan(ActivePreliminaryRepair().build_plan(w.L, 12), w.L, 12, disk_ids=disks)

        def efficiency(rep):
            useful = sum(r.duration for r in rep.records)
            held = sum(r.round_end - r.start for r in rep.records)
            return useful / held

        assert efficiency(ap_rep) > efficiency(fsr_rep)
