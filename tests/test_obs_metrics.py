"""Metrics registry: counters, gauges, histogram bucket edges, snapshots."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("reads_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        c = Counter("reads_total")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_labels_fan_out(self):
        c = Counter("reads_total")
        c.labels(algorithm="fsr").inc(3)
        c.labels(algorithm="hd-psr-ap").inc(1)
        assert c.labels(algorithm="fsr").value == 3
        # Same label set -> same child, regardless of kwarg order.
        c2 = Counter("x")
        assert c2.labels(a="1", b="2") is c2.labels(b="2", a="1")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("slots_in_use")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4.0


class TestHistogramBuckets:
    def test_rejects_bad_edges(self):
        for bad in ([], [1.0, 1.0], [2.0, 1.0], [1.0, 3.0, 2.0]):
            with pytest.raises(ConfigurationError):
                Histogram("h", buckets=bad)

    def test_le_semantics_value_on_edge_counts_in_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)   # le="1" (inclusive upper edge)
        h.observe(1.5)   # le="2"
        h.observe(4.0)   # le="4"
        h.observe(4.01)  # +Inf overflow
        assert h.bucket_counts() == [1, 1, 1, 1]
        assert h.cumulative_counts() == [1, 2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(10.51)

    def test_below_first_edge_lands_in_first_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(0.0)
        h.observe(-5.0)
        assert h.bucket_counts() == [2, 0, 0]

    def test_default_buckets_are_strictly_increasing(self):
        assert all(b > a for a, b in zip(DEFAULT_TIME_BUCKETS,
                                         DEFAULT_TIME_BUCKETS[1:]))
        Histogram("h")  # default edges must construct

    def test_labelled_children_share_edges(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        child = h.labels(algorithm="fsr")
        assert child.buckets == (1.0, 2.0)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")

    def test_type_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ConfigurationError):
            r.gauge("a")

    def test_invalid_name_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            r.counter("bad name!")

    def test_snapshot_shapes(self):
        r = MetricsRegistry()
        r.counter("c", "help c").inc(2)
        r.gauge("g").set(7)
        h = r.histogram("h", buckets=(1.0, 2.0))
        h.observe(1.5)
        snap = r.snapshot()
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["help"] == "help c"
        assert snap["c"]["series"][0] == {"labels": {}, "value": 2.0}
        assert snap["g"]["series"][0]["value"] == 7.0
        hs = snap["h"]["series"][0]
        assert hs["buckets"] == {"1.0": 0, "2.0": 1, "+Inf": 1}
        assert hs["count"] == 1 and hs["sum"] == 1.5

    def test_snapshot_omits_untouched_bare_series_with_children(self):
        r = MetricsRegistry()
        c = r.counter("c")
        c.labels(algorithm="fsr").inc()
        series = r.snapshot()["c"]["series"]
        assert len(series) == 1
        assert series[0]["labels"] == {"algorithm": "fsr"}
        # Touch the bare series -> it reappears.
        c.inc()
        assert len(r.snapshot()["c"]["series"]) == 2

    def test_reset(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.reset()
        assert r.get("c") is None

    def test_a_family_resolves_its_series_once_per_registry(self):
        reads = Family("counter", "reads_total", "help", label="path")
        latency = Family("histogram", "latency_seconds", label="path", buckets=(1.0,))
        first, second = MetricsRegistry(), MetricsRegistry()
        assert reads(first, "loop") is first.counter("reads_total").labels(path="loop")
        assert reads(first, "loop") is reads(first, "loop")
        assert reads(second, "loop") is not reads(first, "loop")
        assert latency(first, "decode").buckets == (1.0,)
        bare = Family("counter", "served_total")
        assert bare(first) is first.counter("served_total")
        first.reset()  # forgets the resolved series with the metrics
        reads(first, "loop").inc()
        assert first.get("reads_total").labels(path="loop").value == 1.0

    def test_a_family_keeps_the_registry_s_type_check(self):
        r = MetricsRegistry()
        r.gauge("reads_total")
        with pytest.raises(ConfigurationError):
            Family("counter", "reads_total", label="path")(r, "loop")

    def test_default_registry_is_shared(self):
        assert default_registry() is default_registry()

    def test_concurrent_increments(self):
        r = MetricsRegistry()
        c = r.counter("c")

        def work():
            for _ in range(500):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestRegistryLockHammer:
    """Regression: label-child creation and P² updates under concurrency.

    Every metric a registry creates shares the registry's single re-entrant
    lock, so racing get-or-create of the *same* labelled child can never
    produce two children (lost updates), and summary observations
    interleaved with snapshots never tear the P² marker state.
    """

    def test_label_child_creation_races_one_child_per_labelset(self):
        r = MetricsRegistry()
        winners = []

        def work(i):
            # Every thread races get-or-create on the same 4 label sets.
            for n in range(400):
                child = r.counter("hammer_total").labels(disk=str(n % 4))
                winners.append(child)
                child.inc()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        c = r.counter("hammer_total")
        total = sum(c.labels(disk=str(d)).value for d in range(4))
        assert total == 8 * 400  # no lost increments
        # get-or-create must have been idempotent: 4 distinct children only.
        assert len({id(w) for w in winners}) == 4

    def test_histogram_observe_vs_snapshot_races(self):
        r = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def observe(path):
            try:
                h = r.histogram("lat_seconds", buckets=LATENCY_BUCKETS)
                for i in range(2000):
                    h.labels(path=path).observe(i / 1000.0)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def scrape():
            try:
                while not stop.is_set():
                    for snap in r.snapshot().values():
                        for series in snap["series"]:
                            # a torn read would show a bucket running ahead
                            vals = list(series["buckets"].values())
                            assert vals == sorted(vals)
                            assert vals[-1] == series["count"]
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        writers = [
            threading.Thread(target=observe, args=(p,))
            for p in ("healthy", "piggyback", "decode", "healthy")
        ]
        scraper = threading.Thread(target=scrape)
        scraper.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        scraper.join()
        assert errors == []
        h = r.histogram("lat_seconds", buckets=LATENCY_BUCKETS)
        assert h.labels(path="healthy").count == 4000
        assert h.labels(path="piggyback").count == 2000

    def test_registry_metrics_share_one_lock(self):
        r = MetricsRegistry()
        c = r.counter("a_total")
        g = r.gauge("b")
        assert c._lock is g._lock is r._lock
        assert c.labels(x="1")._lock is r._lock
