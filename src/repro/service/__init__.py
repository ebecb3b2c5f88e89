"""``repro.service`` — the asyncio sharded repair service.

The subsystems below turn the library's single-threaded repair pipeline
into a long-running service that overlaps many repairs and keeps serving
client reads while disks rebuild:

* :mod:`repro.service.admission` — per-disk read-concurrency gates with
  foreground-over-background priority and deadline-bounded waits;
* :mod:`repro.service.service` — :class:`RepairService`: the repair
  supervisor (each stripe journals, then puts its rebuilt chunks) plus
  the ``submit_repair`` / ``read_chunk`` front door;
* :mod:`repro.service.protocol` — the wire protocol: JSON-line control
  messages, chunk bodies as raw bytes after a JSON header line (with
  request-scoped trace propagation, per-request deadlines, and the v4
  error taxonomy);
* :mod:`repro.service.overload` — deadline-aware admission control:
  the CoDel-style :class:`~repro.service.overload.OverloadController`
  (healthy → browned_out → shedding), per-request
  :class:`~repro.service.overload.Deadline` budgets, and the client-side
  :class:`~repro.service.overload.RetryBudget` token bucket;
* :mod:`repro.service.netserver` / :mod:`repro.service.client` — the
  ``hdpsr serve`` daemon and ``hdpsr client`` workload driver (closed
  loop via :func:`run_workload`, open loop via :func:`run_open_loop`),
  plus the cluster-aware :class:`~repro.service.client.ClusterClient`
  (retries, circuit breakers, ``NOT_OWNER`` redirects, hedged failover
  reads, retry budgets and ``retry_after_ms`` back-pressure);
* :mod:`repro.service.cluster` — multi-daemon shard ownership: epoch-
  stamped file leases, heartbeat failure detection, journal handoff and
  epoch fencing (:class:`ClusterNode`);
* :mod:`repro.service.scrub` — the online scrub plane: a crash-resumable
  background :class:`~repro.service.scrub.Scrubber` that verifies every
  chunk against its digest, quarantines silent corruption, and
  read-repairs it through the partial-stripe decode path;
* :mod:`repro.service.telemetry` — the live scrape surface: the ``stats``
  snapshot builder and the HTTP ``/metrics`` + ``/healthz`` listener.

The proofs behind ``hdpsr chaos`` — :mod:`repro.service.chaos` (failover),
:mod:`repro.service.chaos_overload`, :mod:`repro.service.chaos_bitrot`,
over the shared :mod:`repro.service.chaos_rig` — are a harness, not part
of the daemon: nothing here imports them, ``hdpsr chaos`` does.
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    run_open_loop,
    run_workload,
)
from repro.service.cluster import ClusterConfig, ClusterNode
from repro.service.netserver import ServiceDaemon
from repro.service.overload import OverloadConfig
from repro.service.service import RepairService, ServiceConfig

__all__ = [
    "ClusterConfig",
    "ClusterNode",
    "OverloadConfig",
    "RepairService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDaemon",
    "ServiceError",
    "run_open_loop",
    "run_workload",
]
