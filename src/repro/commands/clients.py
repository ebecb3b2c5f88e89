"""The daemon clients: ``hdpsr client`` (drive a repair-under-load
workload), ``hdpsr top`` (live view of one daemon, or of a fleet with
repeated ``--endpoint``) and ``hdpsr scrub`` (the scrub plane's status).

``top`` and ``scrub`` each ask a daemon one thing over a short-lived
connection and print it; :func:`_show` is the loop they share.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Awaitable, Callable, Dict, List

from repro.commands import flags
from repro.utils.tables import AsciiTable
from repro.utils.units import format_bytes


def _print_open_loop(args: argparse.Namespace, report: dict) -> None:
    """``hdpsr client --shape ...``: the open-loop report, for people."""
    errors = report["errors"]
    print(f"open loop [{args.shape}]: offered {report['offered']} reads "
          f"@ {report['offered_rate']:.1f}/s over "
          f"{report['elapsed_seconds']:.2f}s")
    print(f"completed {report['completed']} "
          f"({report['goodput_per_s']:.1f}/s goodput)  "
          f"p50 {report['read_p50_seconds'] * 1e3:.2f} ms  "
          f"p99 {report['read_p99_seconds'] * 1e3:.2f} ms"
          + (f"  (deadline {args.deadline_ms:.0f} ms)"
             if args.deadline_ms else ""))
    if errors:
        detail = "  ".join(f"{code}={n}" for code, n in sorted(errors.items()))
        print(f"shed/errors: {detail}")
    for row in report["repairs"]:
        print(f"repair disk {row.get('disk')}: "
              f"{row.get('stripes_repaired')} stripes, "
              f"certified={row.get('certified')}")


def _print_closed_loop(report: dict) -> None:
    if report.get("crashed"):
        print("service crashed mid-workload; restart `hdpsr serve` and rerun "
              "the client with --resume", file=sys.stderr)
        return
    table = AsciiTable(
        ["disk", "stripes", "lost", "chunks", "wall s", "certified"],
        title="service repairs",
    )
    for row in report["repairs"]:
        table.add_row([
            row["disk"], row["stripes"], row["stripes_lost"],
            row["chunks_rebuilt"], f"{row['wall_seconds']:.3f}", row["certified"],
        ])
    print(table.render())
    print(f"foreground reads: {report['reads']}  "
          f"p50 {report['read_p50_seconds'] * 1e3:.2f} ms  "
          f"p99 {report['read_p99_seconds'] * 1e3:.2f} ms")
    print(f"trace id: {report['trace_id']} (grep the daemon's --trace "
          "export for the server-side spans)")
    if report["read_errors"]:
        print(f"read errors: {len(report['read_errors'])} "
              f"(first: {report['read_errors'][0]})", file=sys.stderr)


def cmd_client(args: argparse.Namespace) -> int:
    """Drive a repair-under-load workload against ``hdpsr serve``: closed
    loop, or open loop at a traffic shape with ``--shape``."""
    import asyncio
    import json

    from repro.service import run_open_loop, run_workload

    port = flags.resolve_port(args)
    if port is None:
        return 2
    if args.shape:
        report = asyncio.run(run_open_loop(
            args.host, port,
            shape=args.shape, rate=args.rate, duration=args.duration,
            seed=args.seed, deadline_ms=args.deadline_ms,
            disks=tuple(args.fail or ()), connections=args.connections,
            shutdown=args.shutdown,
        ))
    else:
        report = asyncio.run(run_workload(
            args.host, port,
            disks=args.fail if args.fail else [0], reads=args.reads,
            read_concurrency=args.read_concurrency,
            seed=args.seed, resume=args.resume, shutdown=args.shutdown,
        ))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.shape:
        _print_open_loop(args, report)
    else:
        _print_closed_loop(report)
    return int(report["exit_code"])


def _render_top(stats: dict) -> str:
    """One ``hdpsr top`` frame from a daemon ``stats`` snapshot."""
    lines: List[str] = []
    jobs = stats.get("jobs", [])
    if jobs:
        table = AsciiTable(
            ["job", "disk", "algorithm", "stripes", "%", "eta s",
             "replans", "cksum", "state"],
            title="repair jobs",
        )
        for job in jobs:
            total = job.get("stripes_total", 0)
            done = job.get("stripes_done", 0)
            pct = f"{100.0 * done / total:.1f}" if total else "-"
            eta = job.get("eta_seconds")
            table.add_row([
                job.get("job_id"), job.get("disk"), job.get("algorithm"),
                f"{done}/{total}", pct,
                "-" if eta is None else f"{eta:.1f}",
                job.get("replans", 0), job.get("checksum_failures", 0),
                "done" if job.get("done") else "running",
            ])
        lines.append(table.render())
    else:
        lines.append("no repair jobs submitted yet")
    foreground = stats.get("foreground", {})
    if foreground:
        table = AsciiTable(
            ["path", "reads", "p50 ms", "p99 ms", "p999 ms"],
            title="foreground read latency",
        )
        for path in sorted(foreground):
            entry = foreground[path]

            def ms(key: str) -> str:
                value = entry.get(key)
                return "-" if value is None else f"{value * 1e3:.2f}"

            table.add_row([path, int(entry.get("count", 0)),
                           ms("p50"), ms("p99"), ms("p999")])
        lines.append(table.render())
    gates = stats.get("gates", {})
    busy = {d: g for d, g in gates.items()
            if g.get("inflight") or g.get("waiting_foreground")
            or g.get("waiting_background")}
    if busy:
        table = AsciiTable(
            ["disk", "inflight", "width", "fg waiting", "bg waiting"],
            title="disk gates (active only)",
        )
        for disk in sorted(busy, key=int):
            g = busy[disk]
            table.add_row([disk, g.get("inflight", 0), g.get("width", 0),
                           g.get("waiting_foreground", 0),
                           g.get("waiting_background", 0)])
        lines.append(table.render())
    overload = stats.get("overload")
    if overload:
        line = (f"overload: state={overload.get('state', 'healthy')}  "
                f"sheds/s {overload.get('sheds_per_s', 0.0):.1f} "
                f"(total {int(overload.get('sheds_total', 0))})  "
                f"deadline-expired {int(overload.get('deadline_expired', 0))}  "
                f"retry-after {overload.get('retry_after_ms', 0):.0f} ms")
        browned = overload.get("browned_disks") or []
        if browned:
            line += ("  browned disks: "
                     + ",".join(str(d) for d in browned))
        lines.append(line)
    scrub = stats.get("scrub")
    if scrub:
        state = ("parked" if scrub.get("parked")
                 else "running" if scrub.get("running") else "stopped")
        eta = scrub.get("eta_seconds")
        line = (f"scrub: {state}  cycle {scrub.get('cycle', '?')} "
                f"{100.0 * scrub.get('progress', 0.0):.0f}% "
                f"(disk {scrub.get('disks_done', 0)}/"
                f"{scrub.get('disks_total', 0)}"
                + ("" if eta is None else f", eta {eta:.1f} s") + ")  "
                f"verified {int(scrub.get('chunks_verified', 0))}  "
                f"corrupt {int(scrub.get('corrupt_found', 0))}  "
                f"repaired {int(scrub.get('repaired', 0))}  "
                f"quarantined {int(scrub.get('quarantined', 0))}")
        lines.append(line)
    journal = stats.get("journal", {})
    runtime = stats.get("runtime") or {}
    memory = stats.get("memory", {})
    tail = (f"mem {memory.get('in_use', 0)}/{memory.get('capacity', 0)} "
            f"({memory.get('waiting', 0)} waiting)  "
            f"journal {format_bytes(journal.get('bytes', 0))} "
            f"in {int(journal.get('records', 0))} records")
    if runtime:
        lag = runtime.get("loop_lag_last_seconds", 0.0)
        lag99 = runtime.get("loop_lag_p99_seconds")
        tail += f"  loop lag {lag * 1e3:.2f} ms"
        if lag99 is not None:
            tail += f" (p99 {lag99 * 1e3:.2f} ms)"
    lines.append(tail)
    failed = stats.get("failed", [])
    if failed:
        lines.append(f"failed disks: {', '.join(str(d) for d in failed)}")
    return "\n".join(lines)


def _render_cluster_top(snapshots: "Dict[str, dict]") -> str:
    """The aggregated fleet view for ``hdpsr top --endpoint ...``."""
    lines: List[str] = []
    table = AsciiTable(
        ["endpoint", "node", "ready", "owned shards", "epochs", "handoffs",
         "failovers", "jobs", "state", "sheds/s", "ddl-exp"],
        title="cluster daemons",
    )
    for endpoint in sorted(snapshots):
        snap = snapshots[endpoint]
        if "error" in snap:
            table.add_row([endpoint, "-", "down", "-", "-", "-", "-",
                           snap["error"][:40], "-", "-", "-"])
            continue
        cluster = snap.get("cluster") or {}
        stats = snap.get("stats") or {}
        epochs = cluster.get("epochs") or {}
        jobs = stats.get("jobs", [])
        running = sum(1 for j in jobs if not j.get("done"))
        overload = stats.get("overload") or {}
        table.add_row([
            endpoint,
            cluster.get("node", "-"),
            "yes" if cluster.get("enabled") else "solo",
            ",".join(str(s) for s in cluster.get("owned_shards", [])) or "-",
            ",".join(f"{s}:{e}" for s, e in sorted(epochs.items())) or "-",
            ",".join(str(d) for d in cluster.get("handoffs", [])) or "-",
            cluster.get("failovers", 0),
            f"{running} running / {len(jobs)} total",
            overload.get("state", "-"),
            (f"{overload.get('sheds_per_s', 0.0):.1f}"
             if overload else "-"),
            (str(int(overload.get("deadline_expired", 0)))
             if overload else "-"),
        ])
    lines.append(table.render())
    owners: Dict[str, dict] = {}
    for snap in snapshots.values():
        for shard, lease in ((snap.get("cluster") or {}).get("leases") or {}).items():
            owners.setdefault(str(shard), lease)
    if owners:
        table = AsciiTable(
            ["shard", "owner", "endpoint", "epoch", "expires in s"],
            title="shard leases",
        )
        for shard in sorted(owners, key=int):
            lease = owners[shard]
            table.add_row([shard, lease.get("owner"), lease.get("endpoint"),
                           lease.get("epoch"), lease.get("expires_in")])
        lines.append(table.render())
    return "\n".join(lines)


def _show(
    fetch: Callable[[], Awaitable[dict]],
    render: Callable[[dict], str],
    *,
    as_json: bool,
    once: bool,
    interval: float = 0.0,
) -> int:
    """Print what ``fetch()`` returns — as JSON or ``render``-ed — once, or
    every ``interval`` seconds on a cleared screen until interrupted.

    ``fetch`` connects, asks, closes, and raises
    :class:`~repro.service.client.ServiceError` with the line to show when
    there is no daemon to ask (exit 1). A closed stdout is a clean exit.
    """
    import asyncio
    import json
    import time

    from repro.service import ServiceError

    try:
        while True:
            try:
                snapshot = asyncio.run(fetch())
            except ServiceError as exc:
                print(exc, file=sys.stderr)
                return 1
            if as_json:
                print(json.dumps(snapshot, indent=2, sort_keys=True))
            else:
                if not once:
                    # clear screen + home, like top(1)
                    print("\x1b[2J\x1b[H", end="")
                print(render(snapshot), flush=True)
            if once:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # `hdpsr top --once | head` closing the pipe is a clean exit, not
        # a traceback. Detach stdout so interpreter shutdown doesn't retry
        # the flush on the broken descriptor.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _ask(
    host: str, port: int, op: str, trouble: str
) -> Callable[[], Awaitable[dict]]:
    """A ``fetch`` for :func:`_show` that asks one daemon one thing: connect,
    call ``op``, close — ``"<trouble> daemon at host:port: why"`` when it
    cannot."""
    from repro.service import ServiceClient, ServiceError

    async def fetch() -> dict:
        try:
            async with await ServiceClient.connect(host, port) as client:
                reply = await client.call(op)
        except (ServiceError, OSError) as exc:
            raise ServiceError(
                f"{trouble} daemon at {host}:{port}: {exc}"
            ) from None
        reply.pop("ok", None)
        reply.pop("trace_id", None)
        return reply

    return fetch


def _ask_fleet(endpoints: List[str]) -> Callable[[], Awaitable[dict]]:
    """A ``fetch`` for :func:`_show` over several daemons: each endpoint's
    ``cluster`` and ``stats``, or why it gave none; all down is the error."""
    from repro.service import ServiceClient, ServiceError
    from repro.service.client import parse_endpoint

    async def fetch() -> "Dict[str, dict]":
        out: Dict[str, dict] = {}
        for endpoint in endpoints:
            host, port = parse_endpoint(endpoint)
            try:
                async with await ServiceClient.connect(host, port) as client:
                    cluster = await client.cluster()
                    stats = await client.stats()
                cluster.pop("ok", None)
                stats.pop("ok", None)
                out[endpoint] = {"cluster": cluster, "stats": stats}
            except (ServiceError, OSError) as exc:
                out[endpoint] = {"error": str(exc)}
        if all("error" in s for s in out.values()):
            raise ServiceError("no daemon reachable at " + ", ".join(sorted(out)))
        return out

    return fetch


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a running daemon (``hdpsr top``), or the
    aggregated fleet view over repeated ``--endpoint`` flags."""
    if args.endpoint:
        fetch, render = _ask_fleet(args.endpoint), _render_cluster_top
    else:
        port = flags.resolve_port(args)
        if port is None:
            return 2
        fetch = _ask(args.host, port, "stats", "cannot scrape")
        render = _render_top
    return _show(fetch, render, as_json=args.json, once=args.once,
                 interval=args.interval)


def _render_scrub(status: dict) -> str:
    """``hdpsr scrub``'s human rendering of the daemon's scrub snapshot."""
    if not status.get("enabled"):
        return "scrub plane disabled (start the daemon with --scrub)"
    state = ("parked" if status.get("parked")
             else "running" if status.get("running") else "stopped")
    eta = status.get("eta_seconds")
    return "\n".join([
        f"scrub {state}: cycle {status.get('cycle')} "
        f"({status.get('cycles_completed')} completed, "
        f"{status.get('resumed_cycles')} resumed from cursor)",
        f"progress {100.0 * status.get('progress', 0.0):.1f}% — "
        f"disk {status.get('disks_done')}/{status.get('disks_total')}"
        + ("" if eta is None else f", eta {eta:.1f} s"),
        f"verified {status.get('chunks_verified')} chunks "
        f"({status.get('cycle_chunks')} this cycle, "
        f"interval {status.get('interval_ms')} ms)",
        f"corrupt found {status.get('corrupt_found')}  "
        f"repaired {status.get('repaired')}  "
        f"repair failures {status.get('repair_failures')}  "
        f"quarantined {status.get('quarantined')}",
    ])


def cmd_scrub(args: argparse.Namespace) -> int:
    """Query a running daemon's scrub plane (``hdpsr scrub``)."""
    port = flags.resolve_port(args)
    if port is None:
        return 2
    fetch = _ask(args.host, port, "scrub", "cannot reach")
    return _show(fetch, _render_scrub, as_json=args.json, once=True)


def add_client(sub) -> None:
    p = sub.add_parser(
        "client",
        help="drive a repair-under-load workload against hdpsr serve")
    flags.add_endpoint_args(p, "read the port from this file (waits for it)")
    p.add_argument("--fail", type=int, action="append", default=None,
                   metavar="DISK",
                   help="disk to fail + repair (repeatable; default 0)")
    p.add_argument("--shape", default=None,
                   choices=["constant", "diurnal", "bursty", "flash"],
                   help="switch to OPEN-loop load: fire reads at this "
                        "arrival shape's scheduled instants regardless "
                        "of completions (ignores --reads/"
                        "--read-concurrency)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="open loop: mean offered rate in requests/s")
    p.add_argument("--duration", type=float, default=5.0,
                   help="open loop: schedule length in seconds")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request deadline budget attached on the "
                        "wire (daemon sheds work that can't meet it)")
    p.add_argument("--connections", type=int, default=32,
                   help="open loop: client socket pool size")
    p.add_argument("--reads", type=int, default=100,
                   help="foreground chunk reads issued during repair")
    p.add_argument("--read-concurrency", type=int, default=4,
                   help="concurrent reader connections")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resume", action="store_true",
                   help="resume journaled repairs instead of starting new")
    p.add_argument("--shutdown", action="store_true",
                   help="stop the daemon after the workload")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON")
    flags.add_observability_args(p)
    p.set_defaults(func=flags.observed(cmd_client))


def add_scrub(sub) -> None:
    p = sub.add_parser(
        "scrub",
        help="query a running daemon's scrub plane (cursor, progress, "
             "quarantine)")
    flags.add_endpoint_args(p, "read the daemon port from this file (waits)")
    p.add_argument("--json", action="store_true",
                   help="emit the raw scrub snapshot as JSON")
    p.set_defaults(func=cmd_scrub)


def add_top(sub) -> None:
    p = sub.add_parser(
        "top",
        help="live repair-progress / latency view of a running daemon")
    flags.add_endpoint_args(p, "read the daemon port from this file (waits for it)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (scripts/CI)")
    p.add_argument("--json", action="store_true",
                   help="emit the raw stats snapshot as JSON")
    p.add_argument("--endpoint", action="append", default=None,
                   metavar="HOST:PORT",
                   help="aggregate a cluster view over these daemons "
                        "(repeatable; replaces --port/--port-file)")
    p.set_defaults(func=cmd_top)
