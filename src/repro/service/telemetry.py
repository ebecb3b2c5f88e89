"""Live scrape surface for the repair daemon: stats, /metrics, /healthz.

**How the daemon describes itself.** Every plane has exactly one
side-effect-free "what is your state now" method returning a JSON-safe dict
(``RepairService.snapshot``, ``SlotLedger.snapshot``, ``DiskGate.depths``,
``OverloadController.snapshot``, ``Scrubber.status``, ``ClusterNode.status``,
``EventLoopMonitor.snapshot``).
:func:`stats_snapshot` asks each of them once, and everything a scraper
sees is derived from that one reading:

* the sections, laid out as the structured dict behind the daemon's
  ``stats`` verb and ``hdpsr top``;
* every level-type gauge, set by :func:`export_gauges` from the rows of
  :data:`GAUGES` (name, help, section, label keys, where in the section).
  That happens at scrape time — under ``stats``, HTTP ``/metrics`` and the
  TCP ``metrics`` verb alike — so the request and repair paths write no
  gauge. Counters and histograms are written where the event happens.

A new section is one more entry in :func:`stats_snapshot`'s ``sections``
(``stats`` and ``top --json`` pick it up as is) plus a :data:`GAUGES` row
per level worth scraping.

:class:`TelemetryServer` is an optional plain-HTTP listener speaking
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
from repro.obs.metrics import MetricsRegistry, bucket_quantile
from repro.obs.runtime import EventLoopMonitor
from repro.service.client import write_port_file
from repro.service.cluster import NO_EPOCH
from repro.service.overload import STATES
from repro.service.service import (
    READ_LATENCY,
    READ_LATENCY_QUANTILES,
    RepairService,
)

#: Gauge: fraction of a repair job's stripes rebuilt, per disk.
JOB_PROGRESS = "hdpsr_service_job_progress_ratio"

_PRIORITIES = ("foreground", "background")

#: Every level-type gauge the daemon exports: (name, help, section of
#: :func:`stats_snapshot`, label keys, read). ``read(section)`` yields ``(label
#: values, value)`` pairs — or, for an unlabelled gauge, is just the value.
GAUGES = (
    (JOB_PROGRESS, "fraction of a repair job's stripes rebuilt",
     "repair", ("disk", "job"),
     lambda s: (
         ((j["disk"], j["job_id"]),
          j["stripes_done"] / j["stripes_total"] if j["stripes_total"] else 1.0)
         for j in s["jobs"]
     )),
    ("hdpsr_service_job_stripes_done", "stripes rebuilt so far per repair job",
     "repair", ("disk", "job"),
     lambda s: (((j["disk"], j["job_id"]), j["stripes_done"]) for j in s["jobs"])),
    ("hdpsr_service_inflight_stripes", "stripe decodes in flight across all jobs",
     "repair", (), lambda s: s["inflight_stripes"]),
    ("hdpsr_service_memory_slots_in_use", "chunk slots held by in-flight rounds",
     "memory", (), lambda s: s["in_use"]),
    ("hdpsr_service_memory_waiting", "repair rounds parked for chunk slots",
     "memory", (), lambda s: s["waiting"]),
    ("hdpsr_service_gate_inflight", "reads holding a per-disk slot",
     "gates", ("disk",),
     lambda s: (((disk,), g["inflight"]) for disk, g in s.items())),
    ("hdpsr_service_gate_waiting", "reads queued for a per-disk slot",
     "gates", ("disk", "priority"),
     lambda s: (
         ((disk, p), g["waiting_" + p]) for disk, g in s.items() for p in _PRIORITIES
     )),
    ("hdpsr_service_overload_state",
     "daemon overload state (0 healthy, 1 browned-out, 2 shedding)",
     "overload", (), lambda s: STATES.index(s["state"])),
    ("hdpsr_scrub_state", "scrubber state (0 stopped, 1 running, 2 parked)",
     "scrub", (), lambda s: 2 if s["parked"] else int(s["running"])),
    ("hdpsr_scrub_progress", "fraction of the current scrub cycle completed",
     "scrub", (), lambda s: s["progress"]),
    ("hdpsr_scrub_eta_seconds",
     "estimated seconds to finish the current scrub cycle",
     "scrub", (), lambda s: s["eta_seconds"] or 0.0),
    ("hdpsr_cluster_owned_shards",
     "Shards this daemon currently holds leases for.",
     "cluster", (), lambda s: len(s["owned_shards"])),
    ("hdpsr_cluster_lease_epoch",
     "Lease epoch this daemon holds, per shard (0 = not held).",
     "cluster", ("shard",),
     lambda s: (
         ((shard,), s["epochs"].get(str(shard), NO_EPOCH))
         for shard in range(s["num_shards"])
     )),
)


def export_gauges(registry: MetricsRegistry, sections: Dict[str, object]) -> None:
    """Set every :data:`GAUGES` row whose section is present."""
    for name, help, section, keys, read in GAUGES:
        if section not in sections:
            continue
        gauge = registry.gauge(name, help)
        found = read(sections[section])
        for labels, level in found if keys else [((), found)]:
            gauge.labels(**dict(zip(keys, map(str, labels)))).set(level)


def _counter_value(metrics: Dict[str, Dict], name: str) -> float:
    series = metrics.get(name, {}).get("series", ())
    return float(sum(entry["value"] for entry in series))


def _read_percentiles(metrics: Dict[str, Dict]) -> Dict[str, Dict[str, float]]:
    """Foreground latency percentiles per path (healthy/piggyback/decode),
    estimated from the read-latency histogram's buckets."""
    out: Dict[str, Dict[str, float]] = {}
    for series in metrics.get(READ_LATENCY, {}).get("series", ()):
        if series["count"] == 0:
            continue
        entry = {"count": float(series["count"]), "sum": float(series["sum"])}
        edges = [float(le) for le in series["buckets"] if le != "+Inf"]
        cumulative = list(series["buckets"].values())
        for q in READ_LATENCY_QUANTILES:
            entry["p" + format(q * 100, "g").replace(".", "")] = bucket_quantile(
                q, edges, cumulative
            )
        out[series["labels"].get("path", "all")] = entry
    return out


def stats_snapshot(
    service: RepairService,
    monitor: Optional[EventLoopMonitor] = None,
    cluster=None,
    scrubber=None,
) -> dict:
    """One coherent telemetry snapshot of a live :class:`RepairService`.

    Reads every plane once, sets the :data:`GAUGES` from that reading, and
    returns it as the ``stats`` reply — so a ``stats`` call and a
    ``/metrics`` scrape agree on what they saw.
    """
    registry = current_registry()
    metrics = registry.snapshot()
    store = service.server.store
    sections = {
        "repair": service.snapshot(),
        "memory": service.server.memory.snapshot(),
        "gates": {str(d): v for d, v in service.gate.depths().items()},
        "foreground": _read_percentiles(metrics),
        "journal": {
            "records": _counter_value(metrics, JOURNAL_RECORDS),
            "commits": _counter_value(metrics, JOURNAL_COMMITS),
            "bytes": _counter_value(metrics, JOURNAL_BYTES),
        },
        "store": {"swept_tmp_files": int(store.swept_tmp_files)},
    }
    if service.overload is not None:
        sections["overload"] = service.overload.snapshot()
    if monitor is not None:
        sections["runtime"] = monitor.snapshot()
    if cluster is not None:
        sections["cluster"] = cluster.status()
    if scrubber is not None:
        sections["scrub"] = scrubber.status().to_dict()
    export_gauges(registry, sections)
    # The reply keeps its flat head: the repair section is spread over
    # top-level keys, every other section goes out as it is.
    repair = sections.pop("repair")
    return {
        "failed": repair["failed"],
        "jobs": repair["jobs"],
        "read_quantiles": list(READ_LATENCY_QUANTILES),
        "corruption": repair["corruption"],
        **sections,
    }


class TelemetryServer:
    """Plain-HTTP ``/metrics`` + ``/healthz`` listener for one daemon.

    Args:
        host: listen address.
        port: listen port (0 picks an ephemeral one).
        port_file: when set, the actual bound port is written here once
            listening (same discovery contract as the daemon itself).
        registry: metrics registry to render; defaults to the ambient
            one at scrape time.

    The owning daemon assigns :attr:`refresh` (a bound
    :func:`stats_snapshot`) so an HTTP scrape sets the :data:`GAUGES`
    exactly like a ``stats`` call would; without it ``/metrics`` shows
    them only as of the last ``stats``/``top`` request.
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
