"""Trace analytics: critical-path attribution, occupancy, run diffing."""

import json

import pytest

from repro.obs import (
    RecordingTracer,
    analyze_trace,
    diff_metrics,
    load_run_metrics,
    summarize_trace,
)
from repro.obs.analysis import flatten_summary
from repro.obs.exporters import events_from_jsonl, events_to_jsonl
from repro.obs.analysis import metric_direction
from repro.sim.transfer import ChunkTransfer, StripeJob, simulate_slot_schedule


def synthetic_trace() -> RecordingTracer:
    """Two rounds of one stripe with a known critical path.

    Round 0 (t=0..3): disk 1 reads 1s, disk 2 reads 3s (critical),
    disk 3 reads 2s -> induced wait (3-1) + (3-2) = 3s.
    Round 1 (t=3..5): disk 1 reads 2s (critical), disk 3 reads 1s
    -> induced wait 1s.
    """
    t = RecordingTracer()
    t.complete("read", "chunk a", 0.0, 1.0, track="stripe-0",
               disk=1, stripe=0, round=0)
    t.complete("read", "chunk b", 0.0, 3.0, track="stripe-0",
               disk=2, stripe=0, round=0)
    t.complete("read", "chunk c", 0.0, 2.0, track="stripe-0",
               disk=3, stripe=0, round=0)
    t.complete("round", "stripe 0 round 0", 0.0, 3.0, track="stripe-0",
               stripe=0, round=0, chunks=3)
    t.complete("read", "chunk d", 3.0, 2.0, track="stripe-0",
               disk=1, stripe=0, round=1)
    t.complete("read", "chunk e", 3.0, 1.0, track="stripe-0",
               disk=3, stripe=0, round=1)
    t.complete("round", "stripe 0 round 1", 3.0, 2.0, track="stripe-0",
               stripe=0, round=1, chunks=2)
    t.complete("stripe", "stripe 0", 0.0, 5.0, track="stripe-0",
               stripe=0, rounds=2)
    t.complete("wait", "memory-wait", 0.0, 1.5, track="memory", count=3)
    t.instant("slot", "memory-acquire", ts=0.0, track="memory",
              domain="sim", count=3, in_use=3)
    t.instant("slot", "memory-release", ts=3.0, track="memory",
              domain="sim", count=3, in_use=0)
    t.instant("slot", "memory-acquire", ts=3.0, track="memory",
              domain="sim", count=2, in_use=2)
    t.instant("slot", "memory-release", ts=5.0, track="memory",
              domain="sim", count=2, in_use=0)
    return t


class TestCriticalPath:
    def test_known_attribution(self):
        analysis = analyze_trace(synthetic_trace())
        assert analysis.stripes == 1
        assert analysis.reads == 5
        assert len(analysis.rounds) == 2
        assert analysis.makespan == pytest.approx(5.0)

        r0, r1 = analysis.rounds
        assert r0.critical_disk == 2
        assert r0.stall_seconds == pytest.approx(3.0)
        assert r1.critical_disk == 1
        assert r1.stall_seconds == pytest.approx(1.0)

        assert analysis.total_wait_seconds == pytest.approx(4.0)
        assert analysis.acwt == pytest.approx(4.0 / 5.0)

        blame = analysis.disks
        assert blame[2].critical_rounds == 1
        assert blame[2].induced_wait_seconds == pytest.approx(3.0)
        assert blame[2].blame_share == pytest.approx(0.75)
        assert blame[1].critical_rounds == 1
        assert blame[1].blame_share == pytest.approx(0.25)
        assert blame[3].critical_rounds == 0
        # disk 1: reads at [0,1] and [3,5] -> 3s busy over a 5s makespan
        assert blame[1].busy_seconds == pytest.approx(3.0)
        assert blame[1].utilization == pytest.approx(0.6)

    def test_memory_occupancy_curve(self):
        analysis = analyze_trace(synthetic_trace())
        mem = analysis.memory
        assert mem is not None
        assert mem.peak_slots == 3
        # 3 slots for 3s + 2 slots for 2s = 13 slot-seconds over 5s
        assert mem.slot_seconds == pytest.approx(13.0)
        assert mem.mean_slots == pytest.approx(13.0 / 5.0)

    def test_resource_wait_classified(self):
        analysis = analyze_trace(synthetic_trace())
        assert analysis.resource_waits["memory"] == pytest.approx(1.5)
        assert analysis.stripe_memory_wait_seconds == 0.0

    def test_jsonl_round_trip_preserves_analysis(self):
        tracer = synthetic_trace()
        restored = events_from_jsonl(events_to_jsonl(tracer))
        a = summarize_trace(analyze_trace(tracer.events))
        b = summarize_trace(analyze_trace(restored))
        assert a == b

    def test_colliding_replays_split_by_sequence(self):
        # Two replayed runs in one trace: same track/stripe/round keys,
        # both starting at sim t=0 (what `hdpsr repair` with all
        # algorithms produces). Reads must not pool across the replays.
        t = RecordingTracer()
        for _run in range(2):
            t.complete("read", "chunk a", 0.0, 1.0, track="stripe-0",
                       disk=1, stripe=0, round=0)
            t.complete("read", "chunk b", 0.0, 2.0, track="stripe-0",
                       disk=2, stripe=0, round=0)
            t.complete("round", "stripe 0 round 0", 0.0, 2.0,
                       track="stripe-0", stripe=0, round=0, chunks=2)
        analysis = analyze_trace(t)
        assert len(analysis.rounds) == 2
        for rnd in analysis.rounds:
            assert rnd.chunks == 2
            assert rnd.critical_disk == 2
            assert rnd.stall_seconds == pytest.approx(1.0)
        assert analysis.total_wait_seconds == pytest.approx(2.0)

    def test_empty_trace(self):
        analysis = analyze_trace([])
        assert analysis.reads == 0
        assert analysis.acwt == 0.0
        assert analysis.memory is None
        summary = summarize_trace(analysis)
        assert summary["rounds"]["count"] == 0


class TestAgainstSimulator:
    def test_matches_report_blame(self):
        # The trace-level attribution must agree with the record-level
        # attribution computed straight from the TransferReport.
        durations = [1.0, 2.5, 0.7, 1.9, 3.1, 0.4]
        jobs = [
            StripeJob(
                job_id=s,
                rounds=[
                    [ChunkTransfer((s, j), durations[(s + j) % len(durations)] + 0.01 * s,
                                   disk=(s + j) % 4) for j in range(3)],
                    [ChunkTransfer((s, 3 + j), durations[(s * 2 + j) % len(durations)],
                                   disk=(s + j + 1) % 4) for j in range(2)],
                ],
            )
            for s in range(4)
        ]
        tracer = RecordingTracer()
        report = simulate_slot_schedule(jobs, capacity=8, tracer=tracer)
        analysis = analyze_trace(tracer)

        assert analysis.reads == report.chunk_count
        assert analysis.makespan == pytest.approx(report.total_time)
        assert analysis.total_wait_seconds == pytest.approx(
            report.total_waiting_time)

        record_blame = report.disk_blame()
        for disk, entry in record_blame.items():
            assert analysis.disks[disk].critical_rounds == entry["critical_rounds"]
            assert analysis.disks[disk].induced_wait_seconds == pytest.approx(
                entry["induced_wait_seconds"])
            assert analysis.disks[disk].blame_share == pytest.approx(
                entry["blame_share"])

    def test_occupancy_bounded_by_capacity(self):
        jobs = [
            StripeJob(s, [[ChunkTransfer((s, j), 1.0 + 0.1 * j, disk=j)
                           for j in range(3)]])
            for s in range(6)
        ]
        tracer = RecordingTracer()
        simulate_slot_schedule(jobs, capacity=7, tracer=tracer)
        analysis = analyze_trace(tracer)
        assert analysis.memory is not None
        assert 0 < analysis.memory.peak_slots <= 7
        assert 0 < analysis.memory.mean_slots <= analysis.memory.peak_slots


class TestDiff:
    def test_directions(self):
        assert metric_direction("acwt.acwt_seconds") == "lower"
        assert metric_direction("makespan_seconds") == "lower"
        assert metric_direction("reads.count") == "neutral"
        assert metric_direction("disks.3.blame_share") == "neutral"
        assert metric_direction("hdpsr_chunks_transferred_total") == "neutral"
        assert metric_direction("hdpsr_repair_sim_seconds_sum") == "lower"
        assert metric_direction("hdpsr_repair_sim_seconds_count") == "neutral"

    def test_identical_runs_no_regression(self):
        metrics = {"acwt.acwt_seconds": 1.0, "reads.count": 10.0}
        result = diff_metrics(metrics, dict(metrics))
        assert not result.regressions
        assert not result.changed

    def test_regression_past_threshold(self):
        old = {"acwt.acwt_seconds": 1.0}
        new = {"acwt.acwt_seconds": 1.2}
        assert diff_metrics(old, new, threshold=0.1).regressions
        assert not diff_metrics(old, new, threshold=0.5).regressions
        # improvements never regress
        assert not diff_metrics(new, old, threshold=0.1).regressions
        assert diff_metrics(new, old, threshold=0.1).improvements

    def test_neutral_keys_never_regress(self):
        result = diff_metrics({"reads.count": 10.0}, {"reads.count": 100.0})
        assert not result.regressions
        assert result.changed

    def test_move_off_zero_regresses(self):
        result = diff_metrics({"waits.memory_seconds": 0.0},
                              {"waits.memory_seconds": 2.0})
        assert result.regressions

    def test_missing_and_extra_keys(self):
        result = diff_metrics({"a.seconds": 1.0}, {"b.seconds": 1.0})
        assert result.missing == ["a.seconds"]
        assert result.extra == ["b.seconds"]

    def test_only_filter(self):
        old = {"acwt.acwt_seconds": 1.0, "makespan_seconds": 1.0}
        new = {"acwt.acwt_seconds": 2.0, "makespan_seconds": 2.0}
        result = diff_metrics(old, new, only="makespan")
        assert [e.key for e in result.regressions] == ["makespan_seconds"]


class TestLoading:
    def test_flatten(self):
        flat = flatten_summary({"a": {"b": 1, "c": [2.0, 3.0]}, "d": "text",
                                "e": True})
        assert flat == {"a.b": 1.0, "a.c.0": 2.0, "a.c.1": 3.0}

    def test_load_trace_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(events_to_jsonl(synthetic_trace()) + "\n")
        flat = load_run_metrics(path)
        assert flat["acwt.acwt_seconds"] == pytest.approx(0.8)
        assert flat["memory.peak_slots"] == 3.0

    def test_load_benchmark_artefact(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "experiment": "exp1",
            "rows": [
                {"algorithm": "fsr", "total_time": 10.0},
                {"algorithm": "hd-psr-ap", "total_time": 6.0},
            ],
        }))
        flat = load_run_metrics(path)
        assert flat["rows.fsr.total_time"] == 10.0
        assert flat["rows.hd-psr-ap.total_time"] == 6.0

    def test_load_prometheus_dump(self, tmp_path):
        path = tmp_path / "m.prom"
        path.write_text(
            "# TYPE hdpsr_repair_sim_seconds histogram\n"
            'hdpsr_repair_sim_seconds_bucket{le="1.0"} 3\n'
            "hdpsr_repair_sim_seconds_sum 4.5\n"
            "hdpsr_repair_sim_seconds_count 3\n"
        )
        flat = load_run_metrics(path)
        assert flat["hdpsr_repair_sim_seconds_sum"] == 4.5
        # cumulative bucket samples have no stable direction: skipped
        assert not any("_bucket" in k for k in flat)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n")
        with pytest.raises(ValueError):
            load_run_metrics(path)
