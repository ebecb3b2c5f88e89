"""Process-wide metrics: counters, gauges, histograms.

The model follows Prometheus conventions without the client dependency:
a :class:`MetricsRegistry` owns named metrics; each metric optionally fans
out into labelled children (``counter.labels(algorithm="hd-psr-ap")``);
:meth:`MetricsRegistry.snapshot` freezes everything into plain dicts for
JSON dumps, assertions in tests, or the text exporter in
:mod:`repro.obs.exporters`.

Histograms use **fixed bucket boundaries** chosen at creation: observing a
value increments the first bucket whose upper edge is >= the value (edges
are inclusive, matching Prometheus ``le`` semantics), plus a running sum
and count. :data:`DEFAULT_TIME_BUCKETS` suits repair-scale durations
(milliseconds to tens of minutes); :data:`LATENCY_BUCKETS` is the one grid
every wall-clock latency the daemon records uses. :meth:`Histogram.quantile`
reads a quantile back the way Prometheus' ``histogram_quantile`` does, and
:func:`percentiles` gives the exact ones of samples a bounded run holds.

Everything is thread-safe; increments take one lock, which is negligible
next to the NumPy work they meter. Metrics created through a
:class:`MetricsRegistry` (and every labelled child they fan out into)
share the registry's single re-entrant lock, so label-child creation,
updates, and :meth:`MetricsRegistry.snapshot` are safe when
hammered from concurrent asyncio tasks and ``to_thread`` workers alike —
no torn reads between a child being inserted and its first increment.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Edges (seconds) covering chunk transfers through whole-disk repairs.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 300.0, 1200.0,
)

#: Edges (seconds) for wall-clock latencies: 11 a decade from 10 µs to 100 s,
#: 3 significant digits, so neighbours differ by a factor of at most 1.24
#: and :meth:`Histogram.quantile` lands within that factor of the truth.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    float(f"{10 ** (e / 11):.3g}") for e in range(-55, 23)
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Common base: name, help text, labelled children.

    ``lock`` shares a caller's lock (the owning registry passes its own
    single re-entrant lock); standalone metrics get a private one.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 lock: Optional["threading.RLock"] = None) -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ConfigurationError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = lock if lock is not None else threading.RLock()
        self._children: Dict[LabelKey, "Metric"] = {}

    def labels(self, **labels: str) -> "Metric":
        """The child metric for this label set (created on first use)."""
        if not labels:
            return self
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def _new_child(self) -> "Metric":
        raise NotImplementedError

    def _series(self) -> List[Tuple[LabelKey, "Metric"]]:
        """(labels, metric) pairs: the bare metric plus every child.

        A purely label-fanned metric (children exist, bare series never
        touched) omits the bare series, matching Prometheus clients.
        """
        with self._lock:
            items = list(self._children.items())
        if items and not self._touched():
            return items
        return [((), self)] + items

    def _touched(self) -> bool:
        return True


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 lock: Optional["threading.RLock"] = None) -> None:
        super().__init__(name, help, lock=lock)
        self._value = 0.0

    def _new_child(self) -> "Counter":
        return Counter(self.name, self.help, lock=self._lock)

    def _touched(self) -> bool:
        return self._value != 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(Metric):
    """A value that can go up and down (slots in use, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 lock: Optional["threading.RLock"] = None) -> None:
        super().__init__(name, help, lock=lock)
        self._value = 0.0

    def _new_child(self) -> "Gauge":
        return Gauge(self.name, self.help, lock=self._lock)

    def _touched(self) -> bool:
        return self._value != 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(Metric):
    """Fixed-boundary histogram with Prometheus ``le`` semantics.

    ``buckets`` are the finite upper edges, strictly increasing; an
    implicit ``+Inf`` bucket catches the overflow. ``observe(x)``
    increments the first bucket with ``x <= edge``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
                 lock: Optional["threading.RLock"] = None) -> None:
        super().__init__(name, help, lock=lock)
        edges = [float(b) for b in buckets]
        if not edges or any(nxt <= prev for nxt, prev in zip(edges[1:], edges)):
            raise ConfigurationError(
                f"histogram {name}: buckets must be non-empty and strictly "
                f"increasing, got {list(buckets)}"
            )
        self.buckets = tuple(edges)
        self._counts = [0] * (len(edges) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0

    def _new_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self.buckets, lock=self._lock)

    def _touched(self) -> bool:
        return self._count > 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is ``+Inf``."""
        with self._lock:
            return list(self._counts)

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per edge, Prometheus-style, ending at total."""
        out, running = [], 0
        for c in self.bucket_counts():
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """The ``q`` quantile estimated from the buckets (see
        :func:`bucket_quantile`); 0.0 before the first observation."""
        return bucket_quantile(q, self.buckets, self.cumulative_counts())


def bucket_quantile(q: float, edges: Sequence[float],
                    cumulative: Sequence[float]) -> float:
    """Prometheus' ``histogram_quantile`` over one histogram's buckets.

    ``edges`` are the finite upper edges; ``cumulative`` the cumulative
    count at each of them, then the ``+Inf`` total. The answer lies in the
    bucket holding rank ``q * total``, interpolated linearly within it (the
    first bucket starts at 0); a rank in the ``+Inf`` bucket answers the
    last finite edge, and an empty histogram 0.0. Monotone in ``q``.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    total = cumulative[-1]
    if total <= 0:
        return 0.0
    rank = q * total
    # the first bucket that reaches the rank (for q = 0: that holds anything)
    if rank > 0:
        idx = bisect.bisect_left(cumulative, rank)
    else:
        idx = bisect.bisect_right(cumulative, 0)
    if idx >= len(edges):
        return float(edges[-1])
    lower = edges[idx - 1] if idx else 0.0
    below = cumulative[idx - 1] if idx else 0
    return lower + (edges[idx] - lower) * (rank - below) / (cumulative[idx] - below)


def percentiles(samples: Sequence[float],
                qs: Sequence[float] = (0.5, 0.9, 0.99)) -> Dict[float, float]:
    """Exact ``qs`` quantiles of ``samples``, interpolated linearly between
    order statistics (``numpy.percentile``'s default); ``{}`` when empty."""
    ordered = sorted(samples)
    if not ordered:
        return {}
    last = len(ordered) - 1
    out: Dict[float, float] = {}
    for q in qs:
        rank = q * last
        lo = int(rank)
        hi = min(lo + 1, last)
        out[q] = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return out


class MetricsRegistry:
    """Named metric store; get-or-create accessors are idempotent.

    One re-entrant lock guards the name table, every metric it creates,
    and every labelled child those metrics fan into, so registration,
    updates and :meth:`snapshot` serialize against each other without
    lock-ordering hazards.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, Metric] = {}
        #: ``(family, label value) -> series`` resolved by :class:`Family`.
        self._resolved: Dict[Tuple["Family", Hashable], Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, lock=self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def resolve(self, family: "Family", value: Optional[str]) -> Metric:
        """``family``'s series for ``value`` in this registry, created and
        remembered on first use (:class:`Family` looks it up after that)."""
        metric = getattr(self, family.kind)(family.name, family.help, **family.options)
        series = metric if family.label is None else metric.labels(**{family.label: value})
        with self._lock:
            return self._resolved.setdefault((family, value), series)

    def metrics(self) -> List[Metric]:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> Dict[str, Dict]:
        """Freeze every metric (and labelled child) into plain dicts.

        Returns ``{name: {"type", "help", "series": [{"labels", ...}]}}``;
        counter/gauge series carry ``"value"``, histogram series carry
        ``"buckets"`` (edge -> cumulative count), ``"sum"`` and ``"count"``.
        """
        out: Dict[str, Dict] = {}
        for metric in self.metrics():
            series = []
            for labels, child in metric._series():
                entry: Dict = {"labels": dict(labels)}
                if isinstance(child, Histogram):
                    with child._lock:  # buckets, sum and count of one instant
                        cum = child.cumulative_counts()
                        entry["sum"] = child.sum
                        entry["count"] = child.count
                    entry["buckets"] = {
                        **{str(edge): c for edge, c in zip(child.buckets, cum)},
                        "+Inf": cum[-1],
                    }
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[metric.name] = {
                "type": metric.kind, "help": metric.help, "series": series,
            }
        return out

    def reset(self) -> None:
        """Drop every registered metric (tests; fresh CLI runs)."""
        with self._lock:
            self._metrics.clear()
            self._resolved.clear()


class Family:
    """One hot-path metric, fanned out by at most one label.

    ``family(registry, value)`` is the series ``name{label=value}`` of
    ``registry`` (the bare metric when ``label`` is None). The first call
    per registry and value resolves it like ``registry.<kind>(name,
    help).labels(...)``; later ones are one dict lookup in that registry's
    own table. A registry installed by ``use_registry`` therefore resolves
    its own series, and :meth:`MetricsRegistry.reset` forgets them with the
    metrics.

    Args:
        kind: ``"counter"``, ``"gauge"`` or ``"histogram"``.
        options: passed to the registry accessor (``buckets=``).
    """

    __slots__ = ("kind", "name", "help", "label", "options")

    def __init__(self, kind: str, name: str, help: str = "",
                 label: Optional[str] = None, **options) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.label = label
        self.options = options

    def __call__(self, registry: MetricsRegistry, value: Optional[str] = None) -> Metric:
        series = registry._resolved.get((self, value))
        if series is None:
            series = registry.resolve(self, value)
        return series


#: The process-wide default registry (see also repro.obs.context).
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The shared process-wide registry instrumented call sites use."""
    return _DEFAULT_REGISTRY
