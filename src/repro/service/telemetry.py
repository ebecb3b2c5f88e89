"""Live scrape surface for the repair daemon: stats, /metrics, /healthz.

Two front doors onto the same ambient metrics registry:

* :func:`stats_snapshot` builds the structured dict behind the daemon's
  ``stats`` verb and ``hdpsr top`` — per-job repair progress with ETAs,
  per-disk gate occupancy/queue depth, shard-writer backlog, event-loop
  health, journal volume, and foreground read-latency percentiles from
  the P² summaries. It *reads* live state (gauges are refreshed from the
  service at snapshot time), so scraping has no steady-state cost.
* :class:`TelemetryServer` is an optional plain-HTTP listener speaking
  just enough HTTP/1.0 for ``curl`` and a Prometheus scraper: ``GET
  /metrics`` renders the registry as text exposition, ``GET /healthz``
  answers 200 once the daemon is serving (503 while starting or
  draining) — the readiness flip is driven by
  :meth:`~repro.service.netserver.ServiceDaemon.serve_until_stopped`.

No HTTP framework: the handler reads one request head, answers, and
closes, which is all a scrape loop needs and keeps the daemon's
dependency surface at zero.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.journal.journal import (
    JOURNAL_BYTES,
    JOURNAL_COMMITS,
    JOURNAL_RECORDS,
)
from repro.obs.context import current_registry
from repro.obs.exporters import prometheus_text
from repro.obs.metrics import MetricsRegistry, Summary
from repro.obs.runtime import EventLoopMonitor
from repro.service.client import write_port_file
from repro.service.service import (
    READ_LATENCY,
    READ_LATENCY_QUANTILES,
    RepairService,
)
from repro.utils.checksum import BACKEND as CHECKSUM_BACKEND

#: Gauge: fraction of a repair job's stripes rebuilt, per disk.
JOB_PROGRESS = "hdpsr_service_job_progress_ratio"
#: Gauge: stripes rebuilt so far, per repair job.
JOB_STRIPES_DONE = "hdpsr_service_job_stripes_done"
#: Gauge: chunks enqueued to the shard writer but not yet persisted.
WRITER_BACKLOG = "hdpsr_service_writer_backlog"


def _counter_value(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    if metric is None:
        return 0.0
    return float(sum(m.value for _, m in metric._series()))


def _read_percentiles(registry: MetricsRegistry) -> Dict[str, Dict[str, float]]:
    """Foreground latency percentiles per path (healthy/piggyback/decode)."""
    metric = registry.get(READ_LATENCY)
    if not isinstance(metric, Summary):
        return {}
    out: Dict[str, Dict[str, float]] = {}
    for labels, series in metric._series():
        if series.count == 0:
            continue
        path = dict(labels).get("path", "all")
        entry = {"count": float(series.count), "sum": float(series.sum)}
        for q, est in series.quantiles().items():
            key = "p" + format(q * 100, "g").replace(".", "")
            entry[key] = est
        out[path] = entry
    return out


def stats_snapshot(
    service: RepairService,
    monitor: Optional[EventLoopMonitor] = None,
    cluster=None,
    scrubber=None,
) -> dict:
    """One coherent telemetry snapshot of a live :class:`RepairService`.

    Refreshes the scrape-time gauges (job progress, writer backlog) as a
    side effect so an external ``/metrics`` scrape and a ``stats`` call
    agree on what they saw.
    """
    registry = current_registry()
    jobs = service.progress()
    progress_gauge = registry.gauge(
        JOB_PROGRESS, "fraction of a repair job's stripes rebuilt"
    )
    done_gauge = registry.gauge(
        JOB_STRIPES_DONE, "stripes rebuilt so far per repair job"
    )
    for job in jobs:
        labels = {"disk": str(job["disk"]), "job": str(job["job_id"])}
        total = job["stripes_total"]
        ratio = job["stripes_done"] / total if total else 1.0
        progress_gauge.labels(**labels).set(ratio)
        done_gauge.labels(**labels).set(job["stripes_done"])
    backlog = service.writer.backlog()
    registry.gauge(
        WRITER_BACKLOG, "chunks enqueued but not yet persisted"
    ).set(backlog)
    snap = {
        "modeled_now": service.modeled_now,
        "chunks_enqueued": service.writer.chunks_enqueued,
        "writer_backlog": backlog,
        "failed": service.server.failed_disks(),
        "jobs": jobs,
        "gates": {str(d): v for d, v in service.gate.depths().items()},
        "foreground": _read_percentiles(registry),
        "journal": {
            "records": _counter_value(registry, JOURNAL_RECORDS),
            "commits": _counter_value(registry, JOURNAL_COMMITS),
            "bytes": _counter_value(registry, JOURNAL_BYTES),
        },
        "read_quantiles": list(READ_LATENCY_QUANTILES),
        "store": {
            "checksum_backend": CHECKSUM_BACKEND,
            "swept_tmp_files": int(
                getattr(service.server.store, "swept_tmp_files", 0)
            ),
            "orphan_sidecars": int(
                getattr(service.server.store, "orphan_sidecars", 0)
            ),
        },
        "corruption": {
            "found": service.corrupt_found,
            "repaired": service.corrupt_repaired,
            "quarantined": len(service.quarantine),
        },
    }
    if service.overload is not None:
        # Refreshing also re-exports the overload-state gauge, so an HTTP
        # scrape sees the current brownout level without a request shed.
        snap["overload"] = service.overload.snapshot()
    if monitor is not None:
        snap["runtime"] = monitor.snapshot()
    if cluster is not None:
        # Refreshing also re-exports the lease-epoch / owned-shard gauges,
        # so an HTTP scrape sees current ownership without a heartbeat.
        cluster._export_gauges()
        snap["cluster"] = cluster.status()
    if scrubber is not None:
        # status() re-exports the progress/ETA/state gauges as it reads.
        snap["scrub"] = scrubber.status().to_dict()
    return snap


class TelemetryServer:
    """Plain-HTTP ``/metrics`` + ``/healthz`` listener for one daemon.

    Args:
        host: listen address.
        port: listen port (0 picks an ephemeral one).
        port_file: when set, the actual bound port is written here once
            listening (same discovery contract as the daemon itself).
        registry: metrics registry to render; defaults to the ambient
            one at scrape time.

    The owning daemon assigns :attr:`refresh` (usually a bound
    :func:`stats_snapshot`) so an HTTP scrape re-reads the scrape-time
    gauges — job progress, writer backlog — exactly like a ``stats``
    call would; without it ``/metrics`` shows them only after the first
    ``stats``/``top`` request materializes them.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        port_file: "str | Path | None" = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.port_file = Path(port_file) if port_file else None
        self._registry = registry
        self._listener: Optional[asyncio.AbstractServer] = None
        self.ready = False
        self.refresh: Optional[Callable[[], object]] = None

    def set_ready(self, ready: bool) -> None:
        """Flip ``/healthz`` between 200 (serving) and 503 (not yet/draining)."""
        self.ready = ready

    async def start(self) -> int:
        """Bind the listener (idempotent); returns the actual port."""
        if self._listener is not None:
            return self.port
        self._listener = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._listener.sockets[0].getsockname()[1]
        if self.port_file is not None:
            write_port_file(self.port_file, self.port)
        return self.port

    async def stop(self) -> None:
        if self._listener is None:
            return
        self._listener.close()
        try:
            await asyncio.wait_for(self._listener.wait_closed(), timeout=2.0)
        except asyncio.TimeoutError:
            pass
        self._listener = None

    # ------------------------------------------------------------------ http
    def _respond(self, status: str, body: str, content_type: str) -> bytes:
        payload = body.encode()
        head = (
            f"HTTP/1.0 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode() + payload

    def _route(self, method: str, path: str) -> bytes:
        if method != "GET":
            return self._respond("405 Method Not Allowed", "GET only\n", "text/plain")
        if path == "/healthz":
            if self.ready:
                return self._respond("200 OK", "ok\n", "text/plain")
            return self._respond("503 Service Unavailable", "starting\n", "text/plain")
        if path == "/metrics":
            if self.refresh is not None:
                self.refresh()
            registry = self._registry or current_registry()
            return self._respond(
                "200 OK", prometheus_text(registry),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        return self._respond("404 Not Found", f"no route {path}\n", "text/plain")

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request.decode("ascii", "replace").split()
            if len(parts) >= 2:
                # drain headers so well-behaved clients see a clean close
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                    if line in (b"", b"\r\n", b"\n"):
                        break
                writer.write(self._route(parts[0], parts[1]))
                await writer.drain()
        except (asyncio.TimeoutError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
