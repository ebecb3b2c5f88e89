"""``hdpsr serve`` — run the asyncio repair service daemon.

Its tuning flags mirror ``ServiceConfig`` / ``OverloadConfig`` /
``ScrubConfig`` / ``ClusterConfig`` / ``ReadPolicy`` fields by hand: names,
units and polarity differ (``--gate-width`` is ``per_disk_reads``, one
``--no-fsync`` clears three ``durable*`` fields), so only the defaults are
pinned to the fields, by ``tests/test_cli_surface.py``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.commands import flags
from repro.core import ALGORITHMS


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio repair service daemon (``hdpsr serve``)."""
    import asyncio

    from repro.hdss.server import attach_server
    from repro.hdss.store import ShardedChunkStore
    from repro.obs import EventLoopMonitor
    from repro.service import RepairService, ServiceConfig, ServiceDaemon
    from repro.service.telemetry import TelemetryServer

    schedule, policy = flags.fault_setup(args)
    chaos = None
    if schedule is not None:
        from repro.faults import ServiceFaultInjector, is_service_schedule

        if is_service_schedule(schedule):
            # A cluster spec mixes data-path and wire faults; each daemon
            # keeps its own slice (daemon_crash becomes a local
            # process_crash, conn-level kinds feed the wire injector).
            schedule, wire = schedule.for_daemon(args.daemon_index)
            if not len(schedule.events):
                schedule = None
            if len(wire.events):
                chaos = ServiceFaultInjector(wire, daemon=args.daemon_index)
    store = None
    if args.store:
        store = ShardedChunkStore.from_root(
            args.store, num_shards=args.shards, durable=not args.no_fsync
        )

    def provision(into):
        return flags.build_server(args, with_data=True, store=into)

    # A daemon joining an existing cluster must not re-write provisioned
    # data into the shared store: --attach provisions beside it.
    if args.attach and store is not None:
        server = attach_server(store, provision)
    else:
        server = provision(store)
    overload = None
    if not args.no_overload_control:
        from repro.service import OverloadConfig

        overload = OverloadConfig(
            target_ms=args.overload_target_ms,
            shed_target_ms=args.overload_shed_target_ms,
            interval_ms=args.overload_interval_ms,
        )
    config = ServiceConfig(
        max_concurrent_stripes=args.max_stripes,
        per_disk_reads=args.gate_width,
        policy=policy,
        journal_root=args.journal,
        durable_journal=not args.no_fsync,
        overload=overload,
    )
    telemetry = None
    if args.metrics_port is not None or args.metrics_port_file:
        telemetry = TelemetryServer(
            host=args.host,
            port=args.metrics_port or 0,
            port_file=args.metrics_port_file,
        )

    cluster = None
    if args.cluster_dir:
        from repro.service import ClusterConfig, ClusterNode

        cluster = ClusterNode(ClusterConfig(
            root=args.cluster_dir,
            node_id=args.node_id or f"node-{os.getpid()}",
            num_shards=args.cluster_shards,
            lease_ttl=args.lease_ttl,
            heartbeat_interval=args.heartbeat_interval,
            durable=not args.no_fsync,
        ))

    async def run() -> int:
        from pathlib import Path

        service = RepairService(
            server, ALGORITHMS[args.algorithm](), config, faults=schedule
        )
        scrubber = None
        if args.scrub:
            from repro.service.scrub import ScrubConfig, Scrubber

            scrub_journal = args.scrub_journal
            if scrub_journal is None and args.journal:
                scrub_journal = Path(args.journal) / "scrub-cursor"
            scrubber = Scrubber(service, ScrubConfig(
                interval_ms=args.scrub_interval_ms,
                cycle_pause_s=args.scrub_cycle_pause,
                journal_root=scrub_journal,
                durable_journal=not args.no_fsync,
                auto_repair=not args.scrub_no_repair,
            ))
        daemon = ServiceDaemon(
            service, host=args.host, port=args.port, port_file=args.port_file,
            telemetry=telemetry, monitor=EventLoopMonitor(),
            cluster=cluster, chaos=chaos, max_inflight=args.max_inflight,
            scrubber=scrubber,
        )
        port = await daemon.start()
        print(f"hdpsr service listening on {args.host}:{port} "
              f"({len(server.layout)} stripes, store "
              f"{'sharded x' + str(args.shards) if store else 'in-memory'})",
              flush=True)
        if scrubber is not None:
            print(f"scrub plane on: every chunk verified each cycle "
                  f"(interval {args.scrub_interval_ms} ms, cursor "
                  f"{scrubber.config.journal_root or 'in-memory'}, "
                  f"{'repairing' if scrubber.config.auto_repair else 'detect-only'}"
                  f"{', resuming cycle ' + str(scrubber.cycle) if scrubber.cycle_open else ''})",
                  flush=True)
        if cluster is not None:
            print(f"cluster node {cluster.node_id} joining at "
                  f"{args.cluster_dir} ({args.cluster_shards} shards, "
                  f"lease ttl {args.lease_ttl}s)", flush=True)
        if telemetry is not None:
            tport = await telemetry.start()
            print(f"telemetry on http://{args.host}:{tport} "
                  "(/metrics, /healthz)", flush=True)
        rc = await daemon.serve_until_stopped()
        if daemon.crashed is not None:
            print(f"service crashed: {daemon.crashed}", file=sys.stderr)
            if args.journal:
                print(f"repairs are journaled under {args.journal}; restart "
                      "the service and resubmit with --resume",
                      file=sys.stderr)
        return rc

    return asyncio.run(run())


def add_serve(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="run the asyncio repair service (sharded store, JSON-lines API)")
    flags.add_server_args(p)
    p.add_argument("--algorithm", default="hd-psr-ap", choices=list(ALGORITHMS))
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral; see --port-file)")
    p.add_argument("--port-file", default=None, metavar="FILE",
                   help="write the actual bound port here once listening")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="back chunks with a sharded on-disk store at DIR "
                        "(default: in-memory)")
    p.add_argument("--shards", type=int, default=4,
                   help="shard count for --store (default 4)")
    p.add_argument("--max-stripes", type=int, default=4,
                   help="stripe passes the daemon runs at once, across all repairs")
    p.add_argument("--gate-width", type=int, default=2,
                   help="concurrent reads allowed per disk (the DiskGate "
                        "width; default 2)")
    p.add_argument("--no-overload-control", action="store_true",
                   help="disable the CoDel-style brownout controller "
                        "(deadline errors still honored; see "
                        "docs/service.md#overload--brownout)")
    p.add_argument("--overload-target-ms", type=float, default=5.0,
                   help="gate-wait target: a 100 ms window whose "
                        "*minimum* wait exceeds this browns the daemon "
                        "out (repair paced)")
    p.add_argument("--overload-shed-target-ms", type=float, default=50.0,
                   help="escalation target: min gate wait above this "
                        "starts shedding degraded reads")
    p.add_argument("--overload-interval-ms", type=float, default=100.0,
                   help="CoDel window length in milliseconds")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip fsync in store and journal (tests/CI)")
    p.add_argument("--scrub", action="store_true",
                   help="run the background scrub plane: continuously "
                        "verify every chunk against the SHA-256 in its trailer, "
                        "quarantine + read-repair silent corruption")
    p.add_argument("--scrub-interval-ms", type=float, default=20.0,
                   help="pause between chunk verifies (the scrub rate "
                        "knob; stretched under brownout, parked while "
                        "shedding)")
    p.add_argument("--scrub-cycle-pause", type=float, default=0.5,
                   metavar="SECONDS",
                   help="idle pause between full scrub cycles")
    p.add_argument("--scrub-journal", default=None, metavar="DIR",
                   help="crash-resumable scrub-cursor WAL directory "
                        "(default: <--journal>/scrub-cursor when "
                        "--journal is set)")
    p.add_argument("--scrub-no-repair", action="store_true",
                   help="detection-only scrub: quarantine corrupt "
                        "chunks but do not read-repair them")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve HTTP /metrics + /healthz on this port "
                        "(0 = ephemeral; see --metrics-port-file)")
    p.add_argument("--metrics-port-file", default=None, metavar="FILE",
                   help="write the bound telemetry port here (implies "
                        "an ephemeral --metrics-port)")
    p.add_argument("--cluster-dir", default=None, metavar="DIR",
                   help="join the lease-based repair cluster rooted at "
                        "DIR (shared with peer daemons)")
    p.add_argument("--node-id", default=None,
                   help="cluster node name (default node-<pid>)")
    p.add_argument("--cluster-shards", type=int, default=4,
                   help="ownership shards in the cluster (disk %% N)")
    p.add_argument("--lease-ttl", type=float, default=2.0,
                   help="lease expiry in seconds (bounds takeover time)")
    p.add_argument("--heartbeat-interval", type=float, default=0.5,
                   help="seconds between lease renewals (< --lease-ttl)")
    p.add_argument("--attach", action="store_true",
                   help="front an existing --store without re-writing "
                        "provisioned data into it (joining daemons)")
    p.add_argument("--max-inflight", type=int, default=None,
                   help="admission cap: refuse further concurrent "
                        "requests with a retryable overload error")
    p.add_argument("--daemon-index", type=int, default=0,
                   help="this daemon's index in a cluster fault "
                        "schedule (daemon_crash / wire faults)")
    flags.add_fault_args(p)
    flags.add_observability_args(p)
    p.set_defaults(func=flags.observed(cmd_serve))
