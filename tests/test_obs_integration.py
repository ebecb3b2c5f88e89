"""Observability wired through the repair stack.

The headline assertion: a traced ``repair_single_disk`` emits exactly one
``round`` span per scheduled round and one ``stripe`` span per planned
stripe — the trace is a faithful rendering of the :class:`RepairPlan`.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import ALGORITHMS, recover_disk, repair_single_disk
from repro.core.multi_disk import naive_multi_disk_repair
from repro.core.scheduler import ExecutionOptions
from repro.obs import (
    MetricsRegistry,
    RecordingTracer,
    current_registry,
    current_tracer,
    use_registry,
    use_tracer,
)
from repro.obs.exporters import validate_chrome_trace
from repro.obs.profiling import profile
from repro.obs.tracer import NULL_TRACER


@pytest.fixture
def traced():
    tracer = RecordingTracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        yield tracer, registry


class TestContextThreading:
    def test_defaults(self):
        assert current_tracer() is NULL_TRACER
        assert current_registry() is not None

    def test_nested_scopes_restore(self):
        outer, inner = RecordingTracer(), RecordingTracer()
        with use_tracer(outer):
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER


class TestSchedulerTracing:
    @pytest.mark.parametrize("algo", ["fsr", "hd-psr-ap"])
    def test_round_spans_match_plan(self, metadata_server, traced, algo):
        tracer, _ = traced
        metadata_server.fail_disk(0)
        out = repair_single_disk(metadata_server, ALGORITHMS[algo](), 0)
        round_spans = tracer.spans("round")
        stripe_spans = tracer.spans("stripe")
        assert len(round_spans) == out.plan.total_rounds()
        assert len(stripe_spans) == out.plan.num_stripes
        assert len(stripe_spans) == len(out.stripe_indices)
        # Simulated spans live in the sim clock domain.
        assert all(e.domain == "sim" for e in round_spans)
        # One read span per transferred chunk.
        assert len(tracer.spans("read")) == out.report.chunk_count

    def test_interval_model_round_spans_match_plan(self, metadata_server,
                                                   traced):
        tracer, _ = traced
        metadata_server.fail_disk(0)
        out = repair_single_disk(
            metadata_server, ALGORITHMS["fsr"](), 0,
            options=ExecutionOptions(model="interval"),
        )
        assert len(tracer.spans("round")) == out.plan.total_rounds()

    def test_plan_instant_and_profile_span(self, metadata_server, traced):
        tracer, registry = traced
        metadata_server.fail_disk(0)
        repair_single_disk(metadata_server, ALGORITHMS["fsr"](), 0)
        (inst,) = tracer.instants("plan")
        assert inst.args["rounds"] > 0
        assert any(e.name == "plan/fsr" for e in tracer.spans("profile"))
        snap = registry.snapshot()
        assert snap["hdpsr_profile_runs_total"]["series"][0]["value"] == 1
        rounds = snap["hdpsr_rounds_scheduled_total"]["series"][0]
        assert rounds["value"] == len(tracer.spans("round"))

    def test_untraced_run_records_metrics_only(self, metadata_server):
        registry = MetricsRegistry()
        metadata_server.fail_disk(0)
        with use_registry(registry):
            repair_single_disk(metadata_server, ALGORITHMS["fsr"](), 0)
        assert registry.get("hdpsr_plan_executions_total") is not None


class TestDataPathTracing:
    def test_executor_emits_rounds_and_writebacks(self, small_server, traced):
        """``recover_disk`` runs the daemon's job body, so its spans are
        the service track's: one ``stripe`` span a stripe, a ``read`` per
        survivor read, a ``decode`` per round folded, a ``writeback`` per
        stripe rebuilt."""
        tracer, registry = traced
        small_server.fail_disk(0)
        result = recover_disk(small_server, ALGORITHMS["fsr"](), 0)
        stats, out = result.data_path, result.outcome

        def service(kind):
            return [e for e in tracer.spans(kind) if e.track == "service"]

        assert len(service("stripe")) == len(out.stripe_indices)
        assert len(service("read")) == stats.chunks_read
        assert len(service("decode")) == out.plan.total_rounds()
        assert len(service("writeback")) == stats.stripes_repaired
        snap = registry.snapshot()
        read = snap["hdpsr_datapath_bytes_read_total"]["series"][0]["value"]
        assert read == stats.bytes_read


class TestMultiDiskTracing:
    def test_naive_phases_are_offset_sequentially(self, hetero_server, traced):
        tracer, registry = traced
        hetero_server.fail_disk(0)
        hetero_server.fail_disk(1)
        out = naive_multi_disk_repair(
            hetero_server, ALGORITHMS["fsr"], [0, 1]
        )
        phases = tracer.spans("phase")
        assert len(phases) == 2
        # Phase 2 starts exactly where phase 1 ends on the shared timeline.
        assert phases[1].ts == pytest.approx(phases[0].end)
        assert phases[-1].end == pytest.approx(out.total_time)
        snap = registry.snapshot()
        series = snap["hdpsr_multi_disk_repairs_total"]["series"]
        assert series[0]["labels"]["mode"] == "naive"


class TestCliFlags:
    def _args(self, extra):
        return ["repair", "--n", "6", "--k", "4", "--num-disks", "12",
                "--disk-size", "4MiB", "--chunk-size", "1MiB",
                "--algorithm", "fsr"] + extra

    def test_trace_and_metrics_files(self, tmp_path, capsys):
        trace = tmp_path / "out.json"
        metrics = tmp_path / "m.prom"
        rc = main(self._args(["--trace", str(trace),
                              "--metrics", str(metrics)]))
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        assert any(e.get("cat") == "round" for e in doc["traceEvents"])
        assert "hdpsr_rounds_scheduled_total" in metrics.read_text()
        outp = capsys.readouterr().out
        assert "trace written" in outp and "metrics written" in outp

    def test_jsonl_extension_switches_format(self, tmp_path):
        trace = tmp_path / "out.jsonl"
        assert main(self._args(["--trace", str(trace)])) == 0
        lines = trace.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_no_flags_means_no_tracing(self, tmp_path, capsys):
        assert main(self._args([])) == 0
        assert "trace written" not in capsys.readouterr().out


class TestProfileHook:
    def test_profile_record_and_metrics(self):
        registry = MetricsRegistry()
        tracer = RecordingTracer()
        with profile("block", tracer=tracer, registry=registry) as rec:
            sum(range(1000))
        assert rec.wall_seconds > 0
        assert rec.peak_bytes is None
        (span,) = tracer.spans("profile")
        assert span.name == "block" and span.domain == "wall"
        snap = registry.snapshot()
        assert snap["hdpsr_profile_runs_total"]["series"][0]["value"] == 1

    def test_trace_malloc_peak(self):
        registry = MetricsRegistry()
        with profile("alloc", trace_malloc=True, registry=registry) as rec:
            _ = bytearray(256 * 1024)
        assert rec.peak_bytes is not None
        assert rec.peak_bytes >= 256 * 1024
