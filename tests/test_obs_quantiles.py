"""Quantiles read from histogram buckets: accuracy, invariants, stats shape.

Every wall-clock latency the daemon records is a :class:`Histogram` on
:data:`LATENCY_BUCKETS`, and ``stats`` reads its percentiles back through
:meth:`Histogram.quantile`. On that grid an estimate lands in the bucket
that holds the true quantile, so it is off by at most the ratio of one
edge to the one below it.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import EventLoopMonitor, MetricsRegistry, use_registry
from repro.obs.metrics import LATENCY_BUCKETS, Histogram, percentiles
from repro.service.service import READ_LATENCY
from repro.service.telemetry import _read_percentiles

QUANTILES = (0.5, 0.9, 0.99, 0.999)
#: The widest step of the grid: the error bound of every estimate.
GRID_RATIO = max(b / a for a, b in zip(LATENCY_BUCKETS, LATENCY_BUCKETS[1:]))


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
        # read latencies: a millisecond median with a long right tail
        "lognormal": rng.lognormal(np.log(1e-3), 1.0, n),
    }


def _latency_histogram(values=()):
    histogram = Histogram("hdpsr_test_latency_seconds", buckets=LATENCY_BUCKETS)
    for x in values:
        histogram.observe(x)
    return histogram


class TestGrid:
    def test_spans_ten_microseconds_to_a_hundred_seconds(self):
        assert LATENCY_BUCKETS[0] == 1e-5 and LATENCY_BUCKETS[-1] == 100.0
        assert 1.0 < GRID_RATIO <= 1.25
        assert list(LATENCY_BUCKETS) == sorted(set(LATENCY_BUCKETS))


class TestAccuracy:
    @pytest.mark.parametrize(
        "name", ["uniform", "exponential", "bimodal", "lognormal"]
    )
    def test_within_grid_ratio_of_numpy(self, name):
        data = _distributions()[name]
        histogram = _latency_histogram(data)
        for q in QUANTILES:
            true = float(np.percentile(data, q * 100))
            estimate = histogram.quantile(q)
            assert true / GRID_RATIO <= estimate <= true * GRID_RATIO, (name, q)

    def test_count_and_sum_exact(self):
        data = _distributions()["exponential"]
        histogram = _latency_histogram(data)
        assert histogram.count == len(data)
        assert histogram.sum == pytest.approx(float(data.sum()))

    @pytest.mark.parametrize("name", ["uniform", "lognormal"])
    def test_exact_percentiles_match_numpy(self, name):
        data = _distributions(n=5000)[name]
        exact = percentiles(data.tolist(), QUANTILES)
        for q in QUANTILES:
            assert exact[q] == pytest.approx(float(np.percentile(data, q * 100)))
        assert percentiles([]) == {}


class TestInvariants:
    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            data = 1e-4 + rng.exponential(1e-3, int(rng.integers(1, 60)))
            histogram = _latency_histogram(data)
            values = [histogram.quantile(q) for q in np.linspace(0.0, 1.0, 101)]
            assert values == sorted(values)
            # never outside the buckets that hold the smallest and largest
            assert values[0] >= data.min() / GRID_RATIO
            assert values[-1] <= data.max() * GRID_RATIO

    def test_empty_sketch_reports_zero(self):
        histogram = _latency_histogram()
        assert [histogram.quantile(q) for q in QUANTILES] == [0.0] * 4

    def test_constant_stream(self):
        histogram = _latency_histogram([2.5e-3] * 1000)
        for q in QUANTILES:
            assert 2.5e-3 / GRID_RATIO <= histogram.quantile(q) <= 2.5e-3 * GRID_RATIO

    def test_no_sample_retention(self):
        # A histogram keeps one count per bucket, nothing that grows with
        # the stream.
        histogram = _latency_histogram(float(x % 97) * 1e-3 for x in range(10000))
        assert len(histogram.bucket_counts()) == len(LATENCY_BUCKETS) + 1

    def test_overflow_answers_the_last_edge(self):
        histogram = _latency_histogram([500.0, 1000.0])
        assert histogram.quantile(0.5) == LATENCY_BUCKETS[-1]

    def test_empty_histograms_give_the_stats_shape_of_an_idle_daemon(self):
        """Registered but never observed: ``stats`` lists no read path and
        reports the loop-lag quantiles as 0.0, as it always has."""
        registry = MetricsRegistry()
        registry.histogram(READ_LATENCY, buckets=LATENCY_BUCKETS)
        assert _read_percentiles(registry.snapshot()) == {}

        async def run():
            monitor = EventLoopMonitor(interval=60.0)
            monitor.start()
            await asyncio.sleep(0)  # registers the lag histogram, no tick yet
            snap = monitor.snapshot()
            await monitor.stop()
            return snap

        with use_registry(registry):
            snap = asyncio.run(run())
        assert snap["ticks"] == 0.0
        for key in ("loop_lag_p50_seconds", "loop_lag_p99_seconds",
                    "loop_lag_p999_seconds"):
            assert snap[key] == 0.0


class TestValidation:
    def test_bad_quantile_rejected(self):
        histogram = _latency_histogram([1e-3])
        with pytest.raises(ConfigurationError):
            histogram.quantile(-0.1)
        with pytest.raises(ConfigurationError):
            histogram.quantile(1.5)
