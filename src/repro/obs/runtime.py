"""Async-runtime health gauges: event-loop lag and task census.

A repair daemon can look healthy from the outside while its event loop is
drowning — a decode hogging the loop, a flood of gate waiters, a shard
writer stuck behind a slow fsync. :class:`EventLoopMonitor` is the
canonical tell: a background task sleeps a fixed tick and measures how
late the loop woke it. Lag is the difference between the requested and
the actual sleep, which is exactly the queueing delay every other
callback on the loop is experiencing.

Exported series (all in the ambient registry):

* ``hdpsr_runtime_loop_lag_seconds`` — histogram of per-tick wakeup lag
  on :data:`~repro.obs.metrics.LATENCY_BUCKETS` (``snapshot`` reads its
  p50/p99/p999);
* ``hdpsr_runtime_loop_lag_last_seconds`` — gauge, most recent tick;
* ``hdpsr_runtime_tasks`` — gauge, tasks alive on the loop at the tick;
* ``hdpsr_runtime_ticks_total`` — counter, monitor heartbeats (a flat
  line here means the monitor itself starved — the loudest alarm).

Usage::

    monitor = EventLoopMonitor(interval=0.05)
    monitor.start()          # inside a running loop
    ...
    await monitor.stop()
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.obs.context import current_registry
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

LOOP_LAG = "hdpsr_runtime_loop_lag_seconds"
LOOP_LAG_LAST = "hdpsr_runtime_loop_lag_last_seconds"
TASKS = "hdpsr_runtime_tasks"
TICKS = "hdpsr_runtime_ticks_total"

#: Quantiles ``snapshot`` reports for loop lag (tail-heavy on purpose).
LAG_QUANTILES = (0.5, 0.99, 0.999)


class EventLoopMonitor:
    """Samples event-loop wakeup lag on a fixed tick.

    Args:
        interval: seconds between ticks; small enough to catch stalls,
            large enough to be free (default 50 ms).
        registry: metrics registry to export into; defaults to the
            ambient one at :meth:`start` time.
    """

    def __init__(
        self,
        interval: float = 0.05,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval}")
        self.interval = float(interval)
        self._registry = registry
        self._task: Optional[asyncio.Task] = None
        #: Most recent measured lag, seconds (also exported as a gauge).
        self.last_lag = 0.0
        #: Ticks observed since :meth:`start`.
        self.ticks = 0

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    def start(self) -> "EventLoopMonitor":
        """Begin sampling on the running loop (idempotent)."""
        if self.running:
            return self
        if self._registry is None:
            self._registry = current_registry()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="loop-monitor"
        )
        return self

    async def stop(self) -> None:
        """Cancel the sampling task and wait for it to unwind."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def _run(self) -> None:
        registry = self._registry
        lag_histogram = registry.histogram(
            LOOP_LAG, "event-loop wakeup lag per monitor tick",
            buckets=LATENCY_BUCKETS,
        )
        lag_gauge = registry.gauge(LOOP_LAG_LAST, "most recent loop lag")
        tasks_gauge = registry.gauge(TASKS, "asyncio tasks alive on the loop")
        ticks = registry.counter(TICKS, "loop monitor heartbeats")
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self.interval)
            lag = max(0.0, loop.time() - before - self.interval)
            self.last_lag = lag
            self.ticks += 1
            lag_histogram.observe(lag)
            lag_gauge.set(lag)
            tasks_gauge.set(len(asyncio.all_tasks(loop)))
            ticks.inc()

    def snapshot(self) -> Dict[str, float]:
        """Current loop-health readings as a plain dict (for ``stats``)."""
        out: Dict[str, float] = {
            "loop_lag_last_seconds": self.last_lag,
            "ticks": float(self.ticks),
            "interval_seconds": self.interval,
        }
        if self._registry is not None:
            histogram = self._registry.get(LOOP_LAG)
            if histogram is not None:
                for q in LAG_QUANTILES:
                    pname = "p" + format(q * 100, "g").replace(".", "")
                    out[f"loop_lag_{pname}_seconds"] = histogram.quantile(q)
        return out
