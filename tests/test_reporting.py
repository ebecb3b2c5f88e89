"""EXPERIMENTS.md rendering from benchmark artefacts."""

import json

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, prometheus_text
from repro.obs.metrics import LATENCY_BUCKETS
from repro.reporting import ORDER, load_results, render_report, write_report


@pytest.fixture
def results_dir(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    (d / "exp1.json").write_text(json.dumps({
        "experiment": "exp1",
        "meta": {"scale": 4},
        "rows": [
            {"n": 6, "k": 4, "fsr": 10.0, "hd-psr-ap": 7.0, "reduction_hd-psr-ap": 30.0},
        ],
    }))
    (d / "custom.json").write_text(json.dumps({
        "experiment": "custom",
        "rows": [{"x": 1}],
    }))
    return d


class TestLoadResults:
    def test_keyed_by_experiment(self, results_dir):
        results = load_results(results_dir)
        assert set(results) == {"exp1", "custom"}

    def test_non_artefact_json_skipped(self, results_dir):
        # a trace summary (CI regression baseline) is not an artefact
        (results_dir / "trace_baseline.json").write_text(json.dumps(
            {"metrics": {"spans": 83}, "source": "baseline.jsonl"}
        ))
        loaded = load_results(results_dir)
        assert "trace_baseline" not in loaded
        assert "## trace_baseline" not in render_report(results_dir)

    def test_empty_dir(self, tmp_path):
        assert load_results(tmp_path) == {}


class TestRenderReport:
    def test_includes_measured_table(self, results_dir):
        text = render_report(results_dir)
        assert "Experiment 1" in text
        assert "| n" in text  # markdown table headers
        assert "30.000" in text

    def test_missing_artefacts_flagged(self, results_dir):
        text = render_report(results_dir)
        assert text.count("artefact missing") == len(ORDER) - 1

    def test_paper_claims_present(self, results_dir):
        text = render_report(results_dir)
        assert "-71.7%" in text  # exp1 paper peak
        assert "-52.5%" in text  # exp5 paper peak

    def test_extra_experiments_appended(self, results_dir):
        assert "## custom" in render_report(results_dir)

    def test_preamble(self, results_dir):
        text = render_report(results_dir, preamble="Hello preamble.")
        assert "Hello preamble." in text

    def test_write_report(self, results_dir, tmp_path):
        out = write_report(results_dir, tmp_path / "EXPERIMENTS.md")
        assert out.exists()
        assert "paper vs measured" in out.read_text()


    def test_latency_table_estimated_from_grid_buckets(self, results_dir):
        registry = MetricsRegistry()
        reads = registry.histogram("hdpsr_service_read_latency_seconds",
                                   buckets=LATENCY_BUCKETS)
        for ms in range(1, 101):
            reads.labels(path="healthy").observe(ms / 1e3)
        # coarse edges: no table row, an estimate could be a bucket off
        registry.histogram("hdpsr_service_admission_wait_seconds").observe(0.2)
        (results_dir / "exp1.prom").write_text(prometheus_text(registry))
        text = render_report(results_dir)
        assert "| metric" in text and "p99 (ms)" in text
        (row,) = [line for line in text.splitlines()
                  if "hdpsr_service_read_latency_seconds path=healthy" in line]
        p50, p90, p99 = (float(cell) for cell in row.strip("|").split("|")[1:])
        for estimate, true in ((p50, 50.5), (p90, 90.1), (p99, 99.01)):
            assert true / 1.25 <= estimate <= true * 1.25
        assert "admission_wait" not in text


class TestCliReport:
    def test_stdout(self, results_dir, capsys):
        code = main(["report", "--results", str(results_dir)])
        assert code == 0
        assert "Experiment 1" in capsys.readouterr().out

    def test_output_file(self, results_dir, tmp_path, capsys):
        target = tmp_path / "EXP.md"
        code = main(["report", "--results", str(results_dir), "--output", str(target)])
        assert code == 0
        assert target.exists()

    def test_missing_dir(self, tmp_path, capsys):
        code = main(["report", "--results", str(tmp_path / "nope")])
        assert code == 1

    def test_rewrite_keeps_hand_written_preamble(self, results_dir, tmp_path, capsys):
        target = tmp_path / "EXP.md"
        preamble = "Curated shape-agreement summary.\n\n| a | b |\n|---|---|"
        write_report(results_dir, target, preamble=preamble)
        code = main(["report", "--results", str(results_dir), "--output", str(target)])
        assert code == 0
        text = target.read_text()
        assert "Curated shape-agreement summary." in text
        assert text.count("Curated shape-agreement summary.") == 1
