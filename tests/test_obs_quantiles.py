"""P² streaming quantiles: accuracy, invariants, registry integration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, parse_prometheus_text, prometheus_text
from repro.obs.quantiles import QuantileSketch
from repro.obs.quantiles import P2Quantile

QUANTILES = (0.5, 0.95, 0.99)


def _distributions(n=50000):
    rng = np.random.default_rng(42)
    bimodal = np.concatenate([
        rng.normal(10.0, 1.0, int(n * 0.7)),
        rng.normal(20.0, 1.5, n - int(n * 0.7)),
    ])
    rng.shuffle(bimodal)
    return {
        "uniform": rng.uniform(0.0, 10.0, n),
        "exponential": rng.exponential(2.0, n),
        "bimodal": bimodal,
    }


class TestAccuracy:
    @pytest.mark.parametrize("name", ["uniform", "exponential", "bimodal"])
    def test_within_one_percent_of_numpy(self, name):
        data = _distributions()[name]
        sketch = QuantileSketch(QUANTILES)
        for x in data:
            sketch.observe(x)
        estimates = sketch.quantiles()
        for q in QUANTILES:
            true = float(np.percentile(data, q * 100))
            assert estimates[q] == pytest.approx(true, rel=0.01), (name, q)

    def test_mean_min_max_exact(self):
        data = _distributions()["exponential"]
        sketch = QuantileSketch(QUANTILES)
        for x in data:
            sketch.observe(x)
        assert sketch.count == len(data)
        assert sketch.mean == pytest.approx(float(data.mean()))
        assert sketch.min == pytest.approx(float(data.min()))
        assert sketch.max == pytest.approx(float(data.max()))


class TestInvariants:
    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            sketch = QuantileSketch(QUANTILES)
            for x in rng.exponential(1.0, int(rng.integers(1, 60))):
                sketch.observe(x)
            values = sketch.quantiles()
            assert values[0.5] <= values[0.95] <= values[0.99]
            assert sketch.min <= values[0.5]
            assert values[0.99] <= sketch.max

    def test_small_sample_exact(self):
        # With <= 5 observations P² still holds the raw values: the median
        # of five known numbers is exact.
        sketch = QuantileSketch((0.5,))
        for x in (5.0, 1.0, 3.0, 2.0, 4.0):
            sketch.observe(x)
        assert sketch.quantiles()[0.5] == pytest.approx(3.0)

    def test_empty_sketch_reports_zero(self):
        sketch = QuantileSketch(QUANTILES)
        assert sketch.quantiles() == {q: 0.0 for q in QUANTILES}
        assert sketch.mean == 0.0

    def test_constant_stream(self):
        sketch = QuantileSketch(QUANTILES)
        for _ in range(1000):
            sketch.observe(2.5)
        assert all(v == pytest.approx(2.5) for v in sketch.quantiles().values())

    def test_no_sample_retention(self):
        # The estimator keeps five markers per quantile, nothing that
        # grows with the stream.
        estimator = P2Quantile(0.95)
        for x in range(10000):
            estimator.observe(float(x % 97))
        assert len(estimator._q) == 5
        assert len(estimator._buf) == 5

    def test_summary_dict(self):
        sketch = QuantileSketch((0.5, 0.99))
        for x in (1.0, 2.0, 3.0):
            sketch.observe(x)
        summary = sketch.summary()
        assert summary["count"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert "p50" in summary and "p99" in summary


class TestValidation:
    def test_bad_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            P2Quantile(0.0)
        with pytest.raises(ConfigurationError):
            P2Quantile(1.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch(())

    def test_untracked_quantile_rejected(self):
        sketch = QuantileSketch((0.5,))
        sketch.observe(1.0)
        with pytest.raises(ConfigurationError):
            sketch.quantile(0.9)


class TestSummaryMetric:
    def test_registry_and_exposition(self):
        registry = MetricsRegistry()
        summary = registry.summary("hdpsr_test_sojourn_seconds", "test", (0.5, 0.99))
        for x in range(1, 101):
            summary.observe(float(x))
        assert summary.count == 100
        assert summary.sum == pytest.approx(5050.0)
        assert summary.quantile(0.5) == pytest.approx(50.0, rel=0.1)

        text = prometheus_text(registry)
        assert "# TYPE hdpsr_test_sojourn_seconds summary" in text
        samples = parse_prometheus_text(text)
        assert samples[("hdpsr_test_sojourn_seconds_count", ())] == 100
        q50 = samples[("hdpsr_test_sojourn_seconds", (("quantile", "0.5"),))]
        assert q50 == pytest.approx(summary.quantile(0.5))

    def test_labels_fan_out(self):
        registry = MetricsRegistry()
        summary = registry.summary("hdpsr_test_latency_seconds")
        summary.labels(algorithm="fsr").observe(1.0)
        summary.labels(algorithm="hd-psr-ap").observe(2.0)
        snap = registry.snapshot()["hdpsr_test_latency_seconds"]
        assert snap["type"] == "summary"
        assert len(snap["series"]) == 2
        for series in snap["series"]:
            assert series["count"] == 1

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.summary("hdpsr_thing")
        with pytest.raises(ConfigurationError):
            registry.counter("hdpsr_thing")

    def test_snapshot_quantiles_monotone(self):
        registry = MetricsRegistry()
        summary = registry.summary("hdpsr_mono_seconds")
        rng = np.random.default_rng(3)
        for x in rng.exponential(1.0, 500):
            summary.observe(float(x))
        series = registry.snapshot()["hdpsr_mono_seconds"]["series"][0]
        values = [series["quantiles"][f"{q:g}"] for q in (0.5, 0.95, 0.99)]
        assert values == sorted(values)
