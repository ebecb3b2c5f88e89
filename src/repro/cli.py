"""``hdpsr`` command-line interface.

Subcommands:

* ``hdpsr repair``  — single-disk recovery comparison (FSR vs HD-PSR-*);
* ``hdpsr multi``   — multi-disk recovery, naive vs cooperative;
* ``hdpsr faults``  — generate a reproducible fault-injection spec (JSON);
* ``hdpsr observe`` — print the Observation 1-3 tables (Figures 3-4);
* ``hdpsr trace``   — analyze captured traces: summarize / blame / diff;
* ``hdpsr serve``   — run the asyncio repair service daemon;
* ``hdpsr client``  — drive a repair-under-load workload against it;
* ``hdpsr top``     — live repair/latency view of a running daemon, or an
  aggregated cluster view with repeated ``--endpoint`` flags;
* ``hdpsr chaos``   — kill-the-owner cluster chaos scenario (two daemons,
  shared store, lease failover + journal handoff, invariant checks);
* ``hdpsr version`` — print the package version.

Every stochastic element is seeded via ``--seed`` for reproducible output.

``repair`` and ``multi`` accept ``--faults spec.json`` plus read-hardening
knobs (``--read-timeout``, ``--retries``, ``--hedge``); with any of those
the command runs the byte-exact data path under injected faults and its
exit code reports the outcome: 0 = clean recovery, 0 with a warning when
re-planning was needed, 3 when data was lost.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.core import (
    ALGORITHMS,
    cooperative_multi_disk_repair,
    naive_multi_disk_repair,
    repair_single_disk,
)
from repro.core.analysis import acwt_curve_vs_pa, observation1_table, rounds_curve_vs_pr
from repro.utils.tables import AsciiTable
from repro.utils.units import format_bytes, format_duration
from repro.version import __version__
from repro.workloads import build_exp_server, normal_transfer_times


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="capture a structured trace: .json = Chrome trace_event "
             "(chrome://tracing, Perfetto), .jsonl = one event per line")
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="dump the metrics registry in Prometheus text format")


def _observed(fn):
    """Wrap a subcommand so --trace/--metrics capture its execution."""

    def run(args: argparse.Namespace) -> int:
        trace_path = getattr(args, "trace", None)
        metrics_path = getattr(args, "metrics", None)
        if not trace_path and not metrics_path:
            return fn(args)
        from repro.obs import (
            MetricsRegistry,
            RecordingTracer,
            use_registry,
            use_tracer,
            write_chrome_trace,
            write_jsonl,
            write_prometheus,
        )

        tracer = RecordingTracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            rc = fn(args)
        if trace_path:
            if str(trace_path).endswith(".jsonl"):
                path = write_jsonl(tracer, trace_path)
            else:
                path = write_chrome_trace(tracer, trace_path)
            print(f"trace written: {path} ({len(tracer.events)} events)")
        if metrics_path:
            path = write_prometheus(registry, metrics_path)
            print(f"metrics written: {path}")
        return rc

    return run


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC.json",
        help="inject faults from this schedule (see `hdpsr faults`); runs "
             "the byte-exact data path and reports per-stripe outcomes")
    parser.add_argument(
        "--read-timeout", type=float, default=None, metavar="SECONDS",
        help="abandon + retry survivor reads slower than this (modeled time)")
    parser.add_argument(
        "--retries", type=int, default=3,
        help="retry budget per read before hedging/forcing (default 3)")
    parser.add_argument(
        "--hedge", action="store_true",
        help="after retries, re-plan the read onto a different survivor")
    parser.add_argument(
        "--journal", default=None, metavar="DIR",
        help="checkpoint the repair into a crash-consistent journal at DIR "
             "(with --algorithm all, each scheme journals to DIR/<scheme>); "
             "implies the byte-exact hardened data path")
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted repair from --journal DIR: the journaled "
             "plan is reused verbatim, finished stripes are replayed without "
             "re-reading, and the in-flight stripe continues mid-round")


def _fault_setup(args: argparse.Namespace):
    """Parse --faults/--read-timeout/--retries/--hedge into (schedule, policy).

    Returns ``(None, None)`` when no hardening was requested — callers use
    that to keep the plain timing-comparison behavior.
    """
    from repro.core import ReadPolicy
    from repro.faults import FaultSchedule

    schedule = None
    if args.faults:
        schedule = FaultSchedule.from_json(args.faults)
    policy = None
    if args.read_timeout is not None or args.hedge:
        policy = ReadPolicy(
            timeout_seconds=args.read_timeout,
            max_retries=args.retries,
            hedge=args.hedge,
        )
    return schedule, policy


def _loss_table(name: str, result) -> "AsciiTable":
    """Per-stripe outcome table for one hardened recovery."""
    loss = result.loss
    table = AsciiTable(
        ["metric", "value"],
        title=f"{name}: fault-hardened recovery outcomes",
    )
    table.add_row(["stripes", len(loss.stripes)])
    table.add_row(["recovered", len(loss.recovered)])
    table.add_row(["recovered after replan", len(loss.replanned)])
    table.add_row(["lost", len(loss.lost)])
    for kind, count in sorted(loss.faults_injected.items()):
        table.add_row([f"faults injected ({kind})", count])
    table.add_row(["read timeouts", loss.timeouts])
    table.add_row(["read retries", loss.retries])
    table.add_row(["hedged reads", loss.hedged_reads])
    table.add_row(["salvage replans", loss.replans])
    table.add_row(["fresh restarts", loss.fresh_restarts])
    table.add_row(["chunks salvaged", loss.salvaged_chunks])
    table.add_row(["chunks re-read", loss.reread_chunks])
    table.add_row(["checksum failures", loss.checksum_failures])
    if loss.resumed_stripes:
        table.add_row(["stripes replayed from journal", loss.resumed_stripes])
        table.add_row(["chunks re-put from journal", loss.replayed_chunks])
    table.add_row(["chunks rebuilt", result.data_path.chunks_rebuilt])
    table.add_row(["modeled seconds", format_duration(result.data_path.modeled_seconds)])
    table.add_row(["certified", result.certified])
    return table


def _report_hardened(name: str, result) -> int:
    """Print one hardened recovery's outcome; return its exit code."""
    print(_loss_table(name, result).render())
    loss = result.loss
    if loss.has_loss:
        print(f"DATA LOSS: {len(loss.lost)} stripe(s) unrecoverable: "
              f"{loss.lost[:8]}{'...' if len(loss.lost) > 8 else ''}",
              file=sys.stderr)
    elif loss.degraded:
        print(f"warning: recovery degraded — {len(loss.replanned)} stripe(s) "
              f"re-planned, {loss.fresh_restarts} restart(s)", file=sys.stderr)
    return loss.exit_code


def _journal_dir(args: argparse.Namespace, algorithm: str) -> "Optional[str]":
    """Resolve --journal for one scheme: DIR, or DIR/<scheme> under `all`.

    Per-scheme subdirectories keep `--algorithm all` runs from interleaving
    unrelated repairs in one journal (a journal records exactly one repair).
    """
    if not args.journal:
        return None
    if args.algorithm == "all":
        import os

        return os.path.join(args.journal, algorithm)
    return args.journal


def _report_crash(name: str, crash, journal: "Optional[str]") -> None:
    print(f"{name}: {crash}", file=sys.stderr)
    if journal:
        print(f"repair interrupted; resume with: --journal {journal} --resume",
              file=sys.stderr)


def _add_server_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=9, help="total shards per stripe")
    parser.add_argument("--k", type=int, default=6, help="data shards per stripe")
    parser.add_argument("--disk-size", default="1GiB", help="data on each failed disk")
    parser.add_argument("--chunk-size", default="64MiB", help="chunk size")
    parser.add_argument("--num-disks", type=int, default=36, help="disks in the chassis")
    parser.add_argument("--memory", type=int, default=None,
                        help="repair memory capacity c in chunks (default 2k)")
    parser.add_argument("--ros", type=float, default=0.1, help="slow-disk ratio")
    parser.add_argument("--slow-factor", type=float, default=4.0,
                        help="slow disks run this many times slower")
    parser.add_argument("--placement", choices=["rotating", "random"], default="random")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")


def _build_server(args: argparse.Namespace, with_data: bool = False):
    return build_exp_server(
        n=args.n, k=args.k, disk_size=args.disk_size, chunk_size=args.chunk_size,
        num_disks=args.num_disks, memory_chunks=args.memory,
        ros=args.ros, slow_factor=args.slow_factor, seed=args.seed,
        placement=args.placement, with_data=with_data,
    )


def cmd_repair(args: argparse.Namespace) -> int:
    from pathlib import Path

    algos = list(ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    schedule, policy = _fault_setup(args)
    if args.resume and not args.journal:
        print("--resume needs --journal DIR (the journal to resume from)",
              file=sys.stderr)
        return 2
    if schedule is not None or policy is not None or args.journal:
        from repro.core import recover_disk
        from repro.errors import JournalError
        from repro.faults import EXIT_CRASHED, SimulatedCrash

        rc = 0
        for name in algos:
            journal = _journal_dir(args, name)
            server = _build_server(args, with_data=True)
            server.fail_disk(args.disk)
            try:
                result = recover_disk(
                    server, ALGORITHMS[name](), args.disk,
                    faults=schedule, policy=policy,
                    journal=journal, resume=args.resume,
                )
            except SimulatedCrash as crash:
                _report_crash(name, crash, journal)
                return EXIT_CRASHED
            except JournalError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            rc = max(rc, _report_hardened(name, result))
        return rc
    table = AsciiTable(
        ["scheme", "repair time", "vs FSR", "ACWT", "P_a", "P_r", "selection"],
        title=(f"Single-disk recovery: RS({args.n},{args.k}), "
               f"{args.disk_size}/disk, chunk {args.chunk_size}, "
               f"ROS {args.ros:.0%}, seed {args.seed}"),
    )
    baseline: Optional[float] = None
    for name in algos:
        server = _build_server(args)
        server.fail_disk(args.disk)
        out = repair_single_disk(server, ALGORITHMS[name](), args.disk)
        if baseline is None:
            baseline = out.transfer_time
        delta = (1 - out.transfer_time / baseline) * 100
        table.add_row([
            name,
            format_duration(out.transfer_time),
            "baseline" if name == algos[0] else f"{-delta:+.1f}%".replace("+-", "-"),
            f"{out.acwt:.3f} s",
            out.plan.pa if out.plan.pa is not None else "per-stripe",
            out.plan.pr if out.plan.pr is not None else "auto",
            format_duration(out.selection_seconds),
        ])
        if args.timeline:
            path = Path(args.timeline)
            target = path.with_name(f"{path.stem}-{name}{path.suffix or '.csv'}")
            out.report.to_csv(target)
            print(f"timeline written: {target}")
    print(table.render())
    return 0


def cmd_multi(args: argparse.Namespace) -> int:
    schedule, policy = _fault_setup(args)
    if args.resume and not args.journal:
        print("--resume needs --journal DIR (the journal to resume from)",
              file=sys.stderr)
        return 2
    if schedule is not None or policy is not None or args.journal:
        from repro.core import recover_disks
        from repro.errors import JournalError
        from repro.faults import EXIT_CRASHED, SimulatedCrash

        algos = list(ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
        failed = list(range(args.failed))
        rc = 0
        for name in algos:
            journal = _journal_dir(args, name)
            server = _build_server(args, with_data=True)
            for d in failed:
                server.fail_disk(d)
            try:
                result = recover_disks(
                    server, ALGORITHMS[name](), failed,
                    faults=schedule, policy=policy,
                    journal=journal, resume=args.resume,
                )
            except SimulatedCrash as crash:
                _report_crash(f"{name} (cooperative)", crash, journal)
                return EXIT_CRASHED
            except JournalError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            rc = max(rc, _report_hardened(f"{name} (cooperative)", result))
        return rc
    table = AsciiTable(
        ["algorithm", "mode", "repair time", "chunks read", "data read"],
        title=(f"Multi-disk recovery: {args.failed} failed disk(s), "
               f"RS({args.n},{args.k}), {args.disk_size}/disk, seed {args.seed}"),
    )
    algos = list(ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    failed = list(range(args.failed))
    for name in algos:
        for cooperative in (False, True):
            server = _build_server(args)
            for d in failed:
                server.fail_disk(d)
            repair = cooperative_multi_disk_repair if cooperative else naive_multi_disk_repair
            out = repair(server, ALGORITHMS[name], failed)
            table.add_row([
                name,
                "cooperative" if cooperative else "naive",
                format_duration(out.total_time),
                out.chunks_read,
                format_bytes(out.chunks_read * server.config.chunk_size),
            ])
    print(table.render())
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    import json

    from repro.faults import FAULT_KINDS, generate_fault_schedule

    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    bad = [k for k in kinds if k not in FAULT_KINDS]
    if bad:
        print(f"unknown fault kind(s) {bad}; choose from {sorted(FAULT_KINDS)}",
              file=sys.stderr)
        return 2
    schedule = generate_fault_schedule(
        seed=args.seed,
        num_events=args.events,
        horizon=args.horizon,
        num_disks=args.num_disks,
        num_stripes=args.stripes,
        num_shards=args.shards,
        kinds=kinds,
        max_disk_fails=args.max_disk_fails,
    )
    if args.output:
        path = schedule.to_json(args.output)
        print(f"fault spec written: {path} ({len(schedule.events)} events)")
    else:
        print(json.dumps(schedule.to_spec(), indent=2))
    return 0


def cmd_observe(args: argparse.Namespace) -> int:
    s, k, c = args.stripes, args.k, args.memory or args.k * 2

    t1 = AsciiTable(["P_a", "P_r"], title=f"Observation 1: P_a vs P_r (c={c})")
    for pa, pr in observation1_table(c):
        t1.add_row([pa, pr])
    print(t1.render())
    print()

    ros_grid = [0.02, 0.05, 0.08, 0.10]
    curves = {
        ros: acwt_curve_vs_pa(
            normal_transfer_times(s, k, ros=ros, seed=args.seed).L, c
        )
        for ros in ros_grid
    }
    t2 = AsciiTable(
        ["P_a"] + [f"ROS={r:.0%}" for r in ros_grid],
        title=f"Observation 2: ACWT vs P_a (s={s}, k={k}, c={c})",
        float_fmt=".4f",
    )
    for pa in range(1, k + 1):
        t2.add_row([pa] + [curves[r][pa] for r in ros_grid])
    print(t2.render())
    print()

    t3 = AsciiTable(["P_r", "TR"], title=f"Observation 3: TR vs P_r (k={k}, c={c})")
    for pr, tr in rounds_curve_vs_pr(k, c).items():
        t3.add_row([pr, tr])
    print(t3.render())
    return 0


def cmd_durability(args: argparse.Namespace) -> int:
    from repro.reliability import (
        ExponentialLifetime,
        WeibullLifetime,
        estimate_repair_seconds,
        simulate_durability,
    )
    from repro.reliability.lifetimes import YEAR_SECONDS

    if args.weibull_shape is not None:
        lifetime = WeibullLifetime(
            scale_seconds=YEAR_SECONDS / args.afr, shape=args.weibull_shape
        )
    else:
        lifetime = ExponentialLifetime(afr=args.afr)
    table = AsciiTable(
        ["scheme", "repair time", "window", "P(loss)", "95% CI", "MTTDL (y)"],
        title=(f"Durability: RS({args.n},{args.k}), {args.num_disks} disks, "
               f"{lifetime.describe()}, mission {args.mission_years:.0f}y, "
               f"{args.trials} trials"),
    )
    algos = list(ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    for name in algos:
        server = _build_server(args)
        repair = estimate_repair_seconds(server, ALGORITHMS[name](), disk=0)
        window = repair * args.amplify
        result = simulate_durability(
            server.layout, num_disks=args.num_disks, lifetime=lifetime,
            repair_seconds=window, mission_years=args.mission_years,
            trials=args.trials, seed=args.seed,
        )
        mttdl = "inf" if result.mttdl_years == float("inf") else f"{result.mttdl_years:.0f}"
        low, high = result.ci95
        table.add_row([
            name, format_duration(repair), format_duration(window),
            f"{result.loss_probability:.4f}", f"[{low:.4f}, {high:.4f}]", mttdl,
        ])
    print(table.render())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.experiment import run_sweep, save_rows

    spec_path = Path(args.spec)
    if not spec_path.exists():
        print(f"spec file {spec_path} does not exist", file=sys.stderr)
        return 1
    try:
        data = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        print(f"spec file is not valid JSON: {exc}", file=sys.stderr)
        return 1
    rows = run_sweep(data)
    table = AsciiTable(
        ["experiment", "algorithm", "total time", "ACWT", "chunks read", "selection"],
        title=f"Experiment spec {data.get('name', spec_path.stem)!r}",
    )
    for row in rows:
        table.add_row([
            row["experiment"],
            row["algorithm"],
            format_duration(row["total_time"]),
            f"{row['acwt']:.3f} s",
            int(row["chunks_read"]),
            format_duration(row["selection_seconds"]),
        ])
    print(table.render())
    if args.output:
        path = save_rows(rows, args.output)
        print(f"wrote {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.reporting import extract_preamble, render_report, write_report

    results = Path(args.results)
    if not results.exists():
        print(f"results directory {results} does not exist; "
              f"run `pytest benchmarks/ --benchmark-only` first", file=sys.stderr)
        return 1
    if args.output:
        # keep any hand-written preamble already in the output file
        path = write_report(results, args.output,
                            preamble=extract_preamble(Path(args.output)))
        print(f"wrote {path}")
    else:
        print(render_report(results))
    return 0


def _load_trace_analysis(path: str):
    """Read a JSONL trace and analyze it; raises ValueError on bad input."""
    from pathlib import Path

    from repro.obs import analyze_trace, read_jsonl

    p = Path(path)
    if not p.exists():
        raise ValueError(f"trace file {p} does not exist")
    if p.suffix != ".jsonl":
        raise ValueError(
            f"{p} is not a .jsonl trace; capture one with --trace file.jsonl "
            f"(the .json Chrome format is for chrome://tracing, not analysis)"
        )
    return analyze_trace(read_jsonl(p))


def _blame_table(analysis, top: Optional[int] = None) -> "AsciiTable":
    table = AsciiTable(
        ["disk", "reads", "busy", "util", "critical rounds",
         "induced wait", "blame share"],
        title="Bottleneck attribution (which disk stalled each round)",
    )
    blames = sorted(
        analysis.disks.values(),
        key=lambda b: (-b.induced_wait_seconds, -b.critical_rounds, str(b.disk)),
    )
    if top is not None:
        blames = blames[:top]
    for b in blames:
        table.add_row([
            "?" if b.disk is None else b.disk,
            b.reads,
            format_duration(b.busy_seconds),
            f"{b.utilization:.1%}",
            b.critical_rounds,
            format_duration(b.induced_wait_seconds),
            f"{b.blame_share:.1%}",
        ])
    return table


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import summarize_trace

    try:
        analysis = _load_trace_analysis(args.file)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    summary = summarize_trace(analysis)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        overview = AsciiTable(["metric", "value"],
                              title=f"Trace summary: {args.file}")
        overview.add_row(["events", analysis.events])
        overview.add_row(["stripes", analysis.stripes])
        overview.add_row(["rounds", len(analysis.rounds)])
        overview.add_row(["reads", analysis.reads])
        overview.add_row(["makespan", format_duration(analysis.makespan)])
        overview.add_row(["round duration mean",
                          format_duration(summary["rounds"]["duration_mean_seconds"])])
        overview.add_row(["round duration max",
                          format_duration(summary["rounds"]["duration_max_seconds"])])
        overview.add_row(["chunks per round", f"{summary['rounds']['chunks_mean']:.2f}"])
        overview.add_row(["ACWT", f"{analysis.acwt:.4f} s"])
        overview.add_row(["total chunk wait",
                          format_duration(analysis.total_wait_seconds)])
        for name, value in sorted(analysis.resource_waits.items()):
            overview.add_row([f"{name} wait", format_duration(value)])
        if analysis.memory is not None:
            overview.add_row(["memory peak", f"{analysis.memory.peak_slots} slots"])
            overview.add_row(["memory mean", f"{analysis.memory.mean_slots:.2f} slots"])
            overview.add_row(["memory slot-seconds",
                              f"{analysis.memory.slot_seconds:.3f}"])
        print(overview.render())
        print()
        print(_blame_table(analysis).render())
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"summary written: {path}")
    return 0


def cmd_trace_blame(args: argparse.Namespace) -> int:
    try:
        analysis = _load_trace_analysis(args.file)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(_blame_table(analysis, top=args.top).render())
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs import diff_metrics, load_run_metrics

    try:
        old = load_run_metrics(args.old)
        new = load_run_metrics(args.new)
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    result = diff_metrics(old, new, threshold=args.threshold, only=args.only)
    if args.json:
        print(json.dumps(
            {
                "threshold": args.threshold,
                "regressions": [e.key for e in result.regressions],
                "improvements": [e.key for e in result.improvements],
                "entries": [
                    {"key": e.key, "old": e.old, "new": e.new,
                     "rel": e.rel, "direction": e.direction,
                     "regressed": e.regressed, "improved": e.improved}
                    for e in result.entries
                ],
                "missing": result.missing,
                "extra": result.extra,
            },
            indent=2,
        ))
        return 1 if result.regressions else 0
    shown = result.entries if args.all else result.changed
    table = AsciiTable(
        ["metric", "old", "new", "delta", "verdict"],
        title=f"Run diff: {args.old} -> {args.new} "
              f"(threshold {args.threshold:.0%})",
        float_fmt=".6g",
    )
    for e in shown:
        if e.rel is None:
            delta = "-"
        elif e.rel in (float("inf"), float("-inf")):
            delta = "new!=0" if e.rel > 0 else "now 0"
        else:
            delta = f"{e.rel:+.1%}"
        verdict = ("REGRESSED" if e.regressed
                   else "improved" if e.improved
                   else "")
        table.add_row([e.key, e.old, e.new, delta, verdict])
    if shown:
        print(table.render())
    else:
        print(f"no changed metrics ({len(result.entries)} compared)")
    if result.missing:
        print(f"missing from new run: {len(result.missing)} metric(s)")
    if result.extra:
        print(f"only in new run: {len(result.extra)} metric(s)")
    if result.regressions:
        print(f"{len(result.regressions)} regression(s) past "
              f"{args.threshold:.0%}: "
              + ", ".join(e.key for e in result.regressions[:8])
              + ("..." if len(result.regressions) > 8 else ""))
        return 1
    print("no regressions")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio repair service daemon (``hdpsr serve``)."""
    import asyncio

    from repro.hdss.store import ShardedChunkStore
    from repro.obs import EventLoopMonitor
    from repro.service import RepairService, ServiceConfig, ServiceDaemon
    from repro.service.telemetry import TelemetryServer

    schedule, policy = _fault_setup(args)
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
    # A daemon joining an existing cluster must not re-write provisioned
    # data into the shared store (it would resurrect chunks a peer already
    # failed): --attach provisions into a throwaway in-memory store and
    # then fronts the shared one. Same seed => identical layout and spares.
    server = build_exp_server(
        n=args.n, k=args.k, disk_size=args.disk_size, chunk_size=args.chunk_size,
        num_disks=args.num_disks, memory_chunks=args.memory,
        ros=args.ros, slow_factor=args.slow_factor, seed=args.seed,
        placement=args.placement, with_data=True,
        store=None if (args.attach and store is not None) else store,
    )
    if args.attach and store is not None:
        server.store = store
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
                  f"{', resuming cycle ' + str(scrubber.cycle) if scrubber._begun else ''})",
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


def _resolve_port(args: argparse.Namespace) -> Optional[int]:
    """Resolve the daemon port from ``--port`` or (waiting on) ``--port-file``."""
    import time as _time
    from pathlib import Path

    if args.port is not None:
        return int(args.port)
    if not args.port_file:
        print(f"{args.command} needs --port or --port-file", file=sys.stderr)
        return None
    deadline = _time.monotonic() + args.connect_timeout
    path = Path(args.port_file)
    while True:
        if path.exists() and path.read_text().strip():
            return int(path.read_text().strip())
        if _time.monotonic() > deadline:
            print(f"timed out waiting for port file {path}", file=sys.stderr)
            return None
        _time.sleep(0.05)


def _client_open_loop(args: argparse.Namespace, port: int) -> int:
    """``hdpsr client --shape ...``: open-loop load at a traffic shape."""
    import asyncio
    import json

    from repro.service import run_open_loop

    report = asyncio.run(run_open_loop(
        args.host, port,
        shape=args.shape, rate=args.rate, duration=args.duration,
        seed=args.seed, deadline_ms=args.deadline_ms,
        disks=tuple(args.fail or ()), connections=args.connections,
        shutdown=args.shutdown,
    ))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return int(report["exit_code"])
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
    return int(report["exit_code"])


def cmd_client(args: argparse.Namespace) -> int:
    """Drive a repair-under-load workload against ``hdpsr serve``."""
    import asyncio
    import json

    from repro.service import run_workload

    port = _resolve_port(args)
    if port is None:
        return 2
    if args.shape:
        return _client_open_loop(args, port)
    disks = args.fail if args.fail else [0]
    report = asyncio.run(run_workload(
        args.host, port,
        disks=disks, reads=args.reads, read_concurrency=args.read_concurrency,
        seed=args.seed, resume=args.resume, shutdown=args.shutdown,
    ))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    elif report.get("crashed"):
        print("service crashed mid-workload; restart `hdpsr serve` and rerun "
              "the client with --resume", file=sys.stderr)
    else:
        table = AsciiTable(
            ["disk", "stripes", "lost", "chunks", "modeled s", "wall s", "certified"],
            title="service repairs",
        )
        for row in report["repairs"]:
            table.add_row([
                row["disk"], row["stripes"], row["stripes_lost"],
                row["chunks_rebuilt"], f"{row['modeled_seconds']:.4g}",
                f"{row['wall_seconds']:.3f}", row["certified"],
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
    tail = (f"writer backlog {stats.get('writer_backlog', 0)}  "
            f"chunks enqueued {stats.get('chunks_enqueued', 0)}  "
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


def _cluster_top(args: argparse.Namespace) -> int:
    """Aggregated multi-daemon ``top`` (repeated ``--endpoint`` flags)."""
    import asyncio
    import json
    import time as _time

    from repro.service import ServiceClient, ServiceError
    from repro.service.client import parse_endpoint

    async def fetch() -> "Dict[str, dict]":
        out: Dict[str, dict] = {}
        for endpoint in args.endpoint:
            host, port = parse_endpoint(endpoint)
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    cluster = await client.cluster()
                    stats = await client.stats()
                finally:
                    await client.close()
                cluster.pop("ok", None)
                stats.pop("ok", None)
                out[endpoint] = {"cluster": cluster, "stats": stats}
            except (ServiceError, OSError) as exc:
                out[endpoint] = {"error": str(exc)}
        return out

    try:
        while True:
            snapshots = asyncio.run(fetch())
            if all("error" in s for s in snapshots.values()):
                print("no daemon reachable at "
                      + ", ".join(sorted(snapshots)), file=sys.stderr)
                return 1
            if args.json:
                print(json.dumps(snapshots, indent=2, sort_keys=True))
            else:
                if not args.once:
                    print("\x1b[2J\x1b[H", end="")
                print(_render_cluster_top(snapshots), flush=True)
            if args.once:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    """Query a running daemon's scrub plane (``hdpsr scrub``)."""
    import asyncio
    import json

    from repro.service import ServiceClient, ServiceError

    port = _resolve_port(args)
    if port is None:
        return 2

    async def fetch() -> dict:
        client = await ServiceClient.connect(args.host, port)
        try:
            return await client.scrub()
        finally:
            await client.close()

    try:
        status = asyncio.run(fetch())
    except (ServiceError, OSError) as exc:
        print(f"cannot reach daemon at {args.host}:{port}: {exc}",
              file=sys.stderr)
        return 1
    status.pop("ok", None)
    status.pop("trace_id", None)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    if not status.get("enabled"):
        print("scrub plane disabled (start the daemon with --scrub)")
        return 0
    state = ("parked" if status.get("parked")
             else "running" if status.get("running") else "stopped")
    eta = status.get("eta_seconds")
    print(f"scrub {state}: cycle {status.get('cycle')} "
          f"({status.get('cycles_completed')} completed, "
          f"{status.get('resumed_cycles')} resumed from cursor)")
    print(f"progress {100.0 * status.get('progress', 0.0):.1f}% — "
          f"disk {status.get('disks_done')}/{status.get('disks_total')}"
          + ("" if eta is None else f", eta {eta:.1f} s"))
    print(f"verified {status.get('chunks_verified')} chunks "
          f"({status.get('cycle_chunks')} this cycle, "
          f"interval {status.get('interval_ms')} ms)")
    print(f"corrupt found {status.get('corrupt_found')}  "
          f"repaired {status.get('repaired')}  "
          f"repair failures {status.get('repair_failures')}  "
          f"quarantined {status.get('quarantined')}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a running daemon (``hdpsr top``)."""
    import asyncio
    import json
    import time as _time

    from repro.service import ServiceClient, ServiceError

    if args.endpoint:
        return _cluster_top(args)
    port = _resolve_port(args)
    if port is None:
        return 2

    async def fetch() -> dict:
        client = await ServiceClient.connect(args.host, port)
        try:
            return await client.stats()
        finally:
            await client.close()

    try:
        while True:
            try:
                stats = asyncio.run(fetch())
            except (ServiceError, OSError) as exc:
                print(f"cannot scrape daemon at {args.host}:{port}: {exc}",
                      file=sys.stderr)
                return 1
            stats.pop("ok", None)
            if args.json:
                print(json.dumps(stats, indent=2, sort_keys=True))
            else:
                if not args.once:
                    # clear screen + home, like top(1)
                    print("\x1b[2J\x1b[H", end="")
                print(_render_top(stats), flush=True)
            if args.once:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # `hdpsr top --once | head` closing the pipe is a clean exit, not
        # a traceback. Detach stdout so interpreter shutdown doesn't retry
        # the flush on the broken descriptor.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _report_overload_chaos(report: dict) -> None:
    """Human rendering of one flash-crowd episode report."""
    shape = report.get("shape", {})
    overload = report.get("overload", {})
    repair = report.get("repair", {})
    print(f"flash crowd: {report.get('offered')} reads @ "
          f"{report.get('offered_rate')}/s (spike x"
          f"{shape.get('spike_factor', '?')}) against hot disk "
          f"{report.get('hot_disk')} "
          f"(capacity {report.get('hot_capacity_per_s')}/s), "
          f"control={'on' if report.get('control') else 'OFF'}")
    p99 = report.get("read_p99_seconds")
    p99_text = "-" if p99 is None else f"{p99 * 1e3:.1f} ms"
    print(f"completed {report.get('completed')}  "
          f"goodput pre {report.get('goodput_pre_per_s')}/s "
          f"spike {report.get('goodput_spike_per_s')}/s  "
          f"p99 {p99_text} (budget {report.get('p99_budget')}s, "
          f"violated={report.get('p99_violated')})")
    shed_hint = (report.get("shed_example") or {}).get("retry_after_ms")
    print(f"states {'->'.join(report.get('states_seen', []))}  "
          f"sheds {report.get('sheds')} "
          f"(retry_after {shed_hint} ms)  "
          f"deadline-expired {report.get('deadline_expired')}  "
          f"repair-paced {overload.get('repair_paced', 0)}")
    print(f"repair certified={repair.get('certified')}  "
          f"byte-identical={report.get('byte_identical')}  "
          f"recovered-healthy={report.get('recovered_healthy', 'n/a')}")


def _report_bitrot_chaos(report: dict) -> None:
    """Human-readable summary of one bitrot-chaos episode."""
    victims = report.get("victims", [])
    kinds = ", ".join(sorted({v.get("kind", "?") for v in victims}))
    print(f"seeded {len(victims)} silent corruptions mid-repair ({kinds})")
    if report.get("scrub"):
        window = report.get("detection_window_seconds")
        print(f"scrub plane: detected {report.get('detected')} / "
              f"repaired {report.get('read_repaired')}"
              + ("" if window is None else f" within {window}s"))
        print(f"foreground-read-clean={report.get('foreground_read_clean')}  "
              f"parked-while-shedding="
              f"{report.get('scrub_parked_while_shedding')}  "
              f"verifies-while-parked={report.get('verifies_while_parked')}  "
              f"resumed={report.get('scrub_resumed')}")
    else:
        print(f"scrub plane OFF (negative control): "
              f"{report.get('latent_corruptions')} corruption(s) still "
              "latent on disk")
    print(f"byte-identical={report.get('byte_identical')}  "
          f"repair certified={ (report.get('repair') or {}).get('certified') }")


def _report_failover_chaos(report: dict) -> None:
    """Human rendering of one kill-the-owner episode report."""
    latency = report.get("foreground_latency", {})
    repair = report.get("repair_b", {})
    print(f"daemon a killed mid-repair (exit {report.get('exit_code_a')}), "
          f"takeover in {report.get('takeover_seconds', '?')}s")
    print(f"handoff repaired disk(s) {report.get('handoffs')} on b: "
          f"{repair.get('stripes_repaired', '?')} stripes "
          f"({repair.get('resumed_stripes', '?')} resumed from journal), "
          f"certified={repair.get('certified')}")
    print(f"foreground: {latency.get('count', 0)} reads, "
          f"p50 {latency.get('p50', 0) * 1e3:.2f} ms, "
          f"p99 {latency.get('p99', 0) * 1e3:.2f} ms")
    print(f"byte-identical={report.get('byte_identical')}  "
          f"duplicate-writes={len(report.get('duplicate_writes', []))}  "
          f"stale-owner-fenced={report.get('stale_owner_fenced')}")


#: scenario -> (module under repro.service, config class, run function,
#: summary renderer, config field -> its value from the parsed args, for
#: the fields beyond the five every scenario takes). A ``None`` value
#: leaves the config's own default in force (``--p99-budget``).
_CHAOS_SCENARIOS = {
    "failover": ("chaos", "ChaosConfig", "run_chaos", _report_failover_chaos, {
        "crash_at": lambda a: a.crash_at,
        "lease_ttl": lambda a: a.lease_ttl,
        "heartbeat_interval": lambda a: a.heartbeat_interval,
        "p99_budget": lambda a: a.p99_budget,
    }),
    "overload": (
        "chaos_overload", "OverloadChaosConfig", "run_overload_chaos",
        _report_overload_chaos, {
            "control": lambda a: not a.no_control,
            "p99_budget": lambda a: a.p99_budget,
        },
    ),
    "bitrot": (
        "chaos_bitrot", "BitrotChaosConfig", "run_bitrot_chaos",
        _report_bitrot_chaos, {
            "scrub": lambda a: not a.no_scrub,
            "corruptions": lambda a: a.corruptions,
        },
    ),
}


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a chaos scenario: ``failover`` (kill the owner mid-repair),
    ``overload`` (flash crowd against a repairing daemon), or ``bitrot``
    (silent corruption against the scrub plane)."""
    import importlib
    import json
    import tempfile
    from pathlib import Path

    module, config_cls, run_fn, render, extra = _CHAOS_SCENARIOS[args.scenario]
    # Imported here, not at the top: the daemon and every other command
    # run without the chaos harness loaded.
    scenario = importlib.import_module(f"repro.service.{module}")

    def execute(root: Path) -> dict:
        fields = dict(
            root=root, seed=args.seed, stripes=args.stripes,
            failed_disk=args.disk, deadline=args.deadline,
        )
        fields.update((name, pick(args)) for name, pick in extra.items())
        config = getattr(scenario, config_cls)(
            **{k: v for k, v in fields.items() if v is not None}
        )
        return getattr(scenario, run_fn)(config)

    if args.dir:
        report = execute(Path(args.dir))
    else:
        with tempfile.TemporaryDirectory(prefix="hdpsr-chaos-") as td:
            report = execute(Path(td))
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        render(report)
        for failure in report.get("failures", []):
            print(f"FAIL: {failure}", file=sys.stderr)
        print("chaos: PASS" if report.get("passed") else "chaos: FAIL")
    return 0 if report.get("passed") else 1


def cmd_version(args: argparse.Namespace) -> int:
    print(f"hdpsr {__version__}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdpsr",
        description="HD-PSR: partial stripe repair for erasure-coded "
                    "high-density storage servers (ICPP 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")

    p_repair = sub.add_parser("repair", help="compare single-disk recovery schemes")
    _add_server_args(p_repair)
    p_repair.add_argument("--disk", type=int, default=0, help="disk to fail")
    p_repair.add_argument("--algorithm", default="all",
                          choices=["all"] + list(ALGORITHMS))
    p_repair.add_argument("--timeline", default=None,
                          help="write per-chunk timelines as CSV (one file per scheme)")
    _add_fault_args(p_repair)
    _add_observability_args(p_repair)
    p_repair.set_defaults(func=_observed(cmd_repair))

    p_multi = sub.add_parser("multi", help="multi-disk recovery, naive vs cooperative")
    _add_server_args(p_multi)
    p_multi.add_argument("--failed", type=int, default=2, help="number of failed disks")
    p_multi.add_argument("--algorithm", default="all",
                         choices=["all"] + list(ALGORITHMS))
    _add_fault_args(p_multi)
    _add_observability_args(p_multi)
    p_multi.set_defaults(func=_observed(cmd_multi))

    p_faults = sub.add_parser(
        "faults", help="generate a reproducible fault-injection spec (JSON)"
    )
    p_faults.add_argument("--seed", type=int, default=0, help="generator RNG seed")
    p_faults.add_argument("--events", type=int, default=4,
                          help="number of fault events to draw")
    p_faults.add_argument("--horizon", type=float, default=10.0,
                          help="events land in [0, horizon) modeled seconds")
    p_faults.add_argument("--num-disks", type=int, default=36,
                          help="disk-id range to target")
    p_faults.add_argument("--stripes", type=int, default=0,
                          help="stripe-id range for sector errors (0 disables them)")
    p_faults.add_argument("--shards", type=int, default=9,
                          help="shard-id range for sector errors (the code's n)")
    p_faults.add_argument("--kinds", default=",".join(
        ("disk_fail", "sector_error", "slow", "hang")),
        help="comma-separated event kinds to draw from")
    p_faults.add_argument("--max-disk-fails", type=int, default=1,
                          help="cap on permanent disk failures (extras become slow)")
    p_faults.add_argument("--output", default=None, metavar="SPEC.json",
                          help="write the spec here (default: print to stdout)")
    p_faults.set_defaults(func=cmd_faults)

    p_obs = sub.add_parser("observe", help="print the Observation 1-3 tables")
    p_obs.add_argument("--stripes", type=int, default=100)
    p_obs.add_argument("--k", type=int, default=12)
    p_obs.add_argument("--memory", type=int, default=12)
    p_obs.add_argument("--seed", type=int, default=0)
    p_obs.set_defaults(func=cmd_observe)

    p_dur = sub.add_parser(
        "durability", help="Monte-Carlo data-loss risk per repair scheme"
    )
    _add_server_args(p_dur)
    p_dur.add_argument("--algorithm", default="all",
                       choices=["all"] + list(ALGORITHMS))
    p_dur.add_argument("--afr", type=float, default=0.5,
                       help="annualised failure rate of each disk")
    p_dur.add_argument("--weibull-shape", type=float, default=None,
                       help="use a Weibull lifetime with this shape instead of exponential")
    p_dur.add_argument("--mission-years", type=float, default=10.0)
    p_dur.add_argument("--trials", type=int, default=300)
    p_dur.add_argument("--amplify", type=float, default=2000.0,
                       help="scale the repair window (models full-capacity disks)")
    _add_observability_args(p_dur)
    p_dur.set_defaults(func=_observed(cmd_durability))

    p_trace = sub.add_parser(
        "trace", help="analyze captured traces and diff runs"
    )
    tsub = p_trace.add_subparsers(dest="trace_command")

    p_sum = tsub.add_parser(
        "summarize",
        help="round timelines, ACWT, per-disk blame, memory occupancy")
    p_sum.add_argument("file", help="a .jsonl trace from --trace file.jsonl")
    p_sum.add_argument("--json", action="store_true",
                       help="print the summary as JSON instead of tables")
    p_sum.add_argument("--output", default=None, metavar="FILE",
                       help="also write the JSON summary to this file")
    p_sum.set_defaults(func=cmd_trace_summarize)

    p_blame = tsub.add_parser(
        "blame", help="per-disk bottleneck attribution table")
    p_blame.add_argument("file", help="a .jsonl trace from --trace file.jsonl")
    p_blame.add_argument("--top", type=int, default=None,
                         help="show only the N most-blamed disks")
    p_blame.set_defaults(func=cmd_trace_blame)

    p_diff = tsub.add_parser(
        "diff",
        help="compare two runs; exit 1 when a metric regresses past the "
             "threshold (CI perf gate)")
    p_diff.add_argument("old", help="baseline: .jsonl trace, summary/benchmark "
                                    ".json, or .prom metrics dump")
    p_diff.add_argument("new", help="candidate run, same formats")
    p_diff.add_argument("--threshold", type=float, default=0.05,
                        help="relative-delta regression threshold (default 0.05)")
    p_diff.add_argument("--only", default=None, metavar="SUBSTR",
                        help="restrict the comparison to keys containing SUBSTR")
    p_diff.add_argument("--all", action="store_true",
                        help="list unchanged metrics too")
    p_diff.add_argument("--json", action="store_true",
                        help="emit the diff as JSON")
    p_diff.set_defaults(func=cmd_trace_diff)

    p_run = sub.add_parser("run", help="run a JSON experiment spec")
    p_run.add_argument("spec", help="path to the experiment spec (JSON)")
    p_run.add_argument("--output", default=None, help="write result rows to this JSON file")
    _add_observability_args(p_run)
    p_run.set_defaults(func=_observed(cmd_run))

    p_report = sub.add_parser(
        "report", help="render EXPERIMENTS.md from benchmark artefacts"
    )
    p_report.add_argument("--results", default="benchmarks/results",
                          help="directory of benchmark JSON artefacts")
    p_report.add_argument("--output", default=None,
                          help="write to this file instead of stdout")
    p_report.set_defaults(func=cmd_report)

    p_serve = sub.add_parser(
        "serve",
        help="run the asyncio repair service (sharded store, JSON-lines API)")
    _add_server_args(p_serve)
    p_serve.add_argument("--algorithm", default="hd-psr-ap", choices=list(ALGORITHMS))
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (0 = ephemeral; see --port-file)")
    p_serve.add_argument("--port-file", default=None, metavar="FILE",
                         help="write the actual bound port here once listening")
    p_serve.add_argument("--store", default=None, metavar="DIR",
                         help="back chunks with a sharded on-disk store at DIR "
                              "(default: in-memory)")
    p_serve.add_argument("--shards", type=int, default=4,
                         help="shard count for --store (default 4)")
    p_serve.add_argument("--max-stripes", type=int, default=4,
                         help="concurrent stripe decodes per repair job")
    p_serve.add_argument("--gate-width", type=int, default=2,
                         help="concurrent reads allowed per disk (the DiskGate "
                              "width; default 2)")
    p_serve.add_argument("--no-overload-control", action="store_true",
                         help="disable the CoDel-style brownout controller "
                              "(deadline errors still honored; see "
                              "docs/service.md#overload--brownout)")
    p_serve.add_argument("--overload-target-ms", type=float, default=5.0,
                         help="gate-wait target: a 100 ms window whose "
                              "*minimum* wait exceeds this browns the daemon "
                              "out (repair paced)")
    p_serve.add_argument("--overload-shed-target-ms", type=float, default=50.0,
                         help="escalation target: min gate wait above this "
                              "starts shedding degraded reads")
    p_serve.add_argument("--overload-interval-ms", type=float, default=100.0,
                         help="CoDel window length in milliseconds")
    p_serve.add_argument("--no-fsync", action="store_true",
                         help="skip fsync in store and journal (tests/CI)")
    p_serve.add_argument("--scrub", action="store_true",
                         help="run the background scrub plane: continuously "
                              "verify every chunk against its CRC32C sidecar, "
                              "quarantine + read-repair silent corruption")
    p_serve.add_argument("--scrub-interval-ms", type=float, default=20.0,
                         help="pause between chunk verifies (the scrub rate "
                              "knob; stretched under brownout, parked while "
                              "shedding)")
    p_serve.add_argument("--scrub-cycle-pause", type=float, default=0.5,
                         metavar="SECONDS",
                         help="idle pause between full scrub cycles")
    p_serve.add_argument("--scrub-journal", default=None, metavar="DIR",
                         help="crash-resumable scrub-cursor WAL directory "
                              "(default: <--journal>/scrub-cursor when "
                              "--journal is set)")
    p_serve.add_argument("--scrub-no-repair", action="store_true",
                         help="detection-only scrub: quarantine corrupt "
                              "chunks but do not read-repair them")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="serve HTTP /metrics + /healthz on this port "
                              "(0 = ephemeral; see --metrics-port-file)")
    p_serve.add_argument("--metrics-port-file", default=None, metavar="FILE",
                         help="write the bound telemetry port here (implies "
                              "an ephemeral --metrics-port)")
    p_serve.add_argument("--cluster-dir", default=None, metavar="DIR",
                         help="join the lease-based repair cluster rooted at "
                              "DIR (shared with peer daemons)")
    p_serve.add_argument("--node-id", default=None,
                         help="cluster node name (default node-<pid>)")
    p_serve.add_argument("--cluster-shards", type=int, default=4,
                         help="ownership shards in the cluster (disk %% N)")
    p_serve.add_argument("--lease-ttl", type=float, default=2.0,
                         help="lease expiry in seconds (bounds takeover time)")
    p_serve.add_argument("--heartbeat-interval", type=float, default=0.5,
                         help="seconds between lease renewals (< --lease-ttl)")
    p_serve.add_argument("--attach", action="store_true",
                         help="front an existing --store without re-writing "
                              "provisioned data into it (joining daemons)")
    p_serve.add_argument("--max-inflight", type=int, default=None,
                         help="admission cap: refuse further concurrent "
                              "requests with a retryable overload error")
    p_serve.add_argument("--daemon-index", type=int, default=0,
                         help="this daemon's index in a cluster fault "
                              "schedule (daemon_crash / wire faults)")
    _add_fault_args(p_serve)
    _add_observability_args(p_serve)
    p_serve.set_defaults(func=_observed(cmd_serve))

    p_client = sub.add_parser(
        "client",
        help="drive a repair-under-load workload against hdpsr serve")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=None)
    p_client.add_argument("--port-file", default=None, metavar="FILE",
                          help="read the port from this file (waits for it)")
    p_client.add_argument("--connect-timeout", type=float, default=10.0,
                          help="seconds to wait for --port-file to appear")
    p_client.add_argument("--fail", type=int, action="append", default=None,
                          metavar="DISK",
                          help="disk to fail + repair (repeatable; default 0)")
    p_client.add_argument("--shape", default=None,
                          choices=["constant", "diurnal", "bursty", "flash"],
                          help="switch to OPEN-loop load: fire reads at this "
                               "arrival shape's scheduled instants regardless "
                               "of completions (ignores --reads/"
                               "--read-concurrency)")
    p_client.add_argument("--rate", type=float, default=50.0,
                          help="open loop: mean offered rate in requests/s")
    p_client.add_argument("--duration", type=float, default=5.0,
                          help="open loop: schedule length in seconds")
    p_client.add_argument("--deadline-ms", type=float, default=None,
                          help="per-request deadline budget attached on the "
                               "wire (daemon sheds work that can't meet it)")
    p_client.add_argument("--connections", type=int, default=32,
                          help="open loop: client socket pool size")
    p_client.add_argument("--reads", type=int, default=100,
                          help="foreground chunk reads issued during repair")
    p_client.add_argument("--read-concurrency", type=int, default=4,
                          help="concurrent reader connections")
    p_client.add_argument("--seed", type=int, default=0)
    p_client.add_argument("--resume", action="store_true",
                          help="resume journaled repairs instead of starting new")
    p_client.add_argument("--shutdown", action="store_true",
                          help="stop the daemon after the workload")
    p_client.add_argument("--json", action="store_true",
                          help="print the report as JSON")
    _add_observability_args(p_client)
    p_client.set_defaults(func=_observed(cmd_client))

    p_scrub = sub.add_parser(
        "scrub",
        help="query a running daemon's scrub plane (cursor, progress, "
             "quarantine)")
    p_scrub.add_argument("--host", default="127.0.0.1")
    p_scrub.add_argument("--port", type=int, default=None)
    p_scrub.add_argument("--port-file", default=None, metavar="FILE",
                         help="read the daemon port from this file (waits)")
    p_scrub.add_argument("--connect-timeout", type=float, default=10.0,
                         help="seconds to wait for --port-file to appear")
    p_scrub.add_argument("--json", action="store_true",
                         help="emit the raw scrub snapshot as JSON")
    p_scrub.set_defaults(func=cmd_scrub)

    p_top = sub.add_parser(
        "top",
        help="live repair-progress / latency view of a running daemon")
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=None)
    p_top.add_argument("--port-file", default=None, metavar="FILE",
                       help="read the daemon port from this file (waits for it)")
    p_top.add_argument("--connect-timeout", type=float, default=10.0,
                       help="seconds to wait for --port-file to appear")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="refresh period in seconds")
    p_top.add_argument("--once", action="store_true",
                       help="print one frame and exit (scripts/CI)")
    p_top.add_argument("--json", action="store_true",
                       help="emit the raw stats snapshot as JSON")
    p_top.add_argument("--endpoint", action="append", default=None,
                       metavar="HOST:PORT",
                       help="aggregate a cluster view over these daemons "
                            "(repeatable; replaces --port/--port-file)")
    p_top.set_defaults(func=cmd_top)

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic chaos scenarios: failover (kill the owner "
             "mid-repair), overload (flash crowd vs a repairing daemon), "
             "or bitrot (silent corruption vs the scrub plane)")
    p_chaos.add_argument("--scenario", choices=["failover", "overload", "bitrot"],
                         default="failover",
                         help="failover: 2 daemons, lease takeover + journal "
                              "handoff. overload: open-loop flash crowd "
                              "against one repairing daemon; asserts brownout "
                              "entry/exit, bounded p99, clean repair. bitrot: "
                              "corruption seeded mid-repair; asserts scrub "
                              "detection, byte-identical read-repair, zero "
                              "corrupt bytes served, park-under-shed")
    p_chaos.add_argument("--no-control", action="store_true",
                         help="overload scenario only: run the negative "
                              "control (controller + deadlines off; expect "
                              "the p99 budget to be violated)")
    p_chaos.add_argument("--no-scrub", action="store_true",
                         help="bitrot scenario only: run the negative control "
                              "(scrub plane off; the seeded corruption stays "
                              "latent on disk — see latent_corruptions)")
    p_chaos.add_argument("--corruptions", type=int, default=3,
                         help="bitrot scenario: corrupt chunks seeded "
                              "(kinds cycle bitrot/torn_write/"
                              "misdirected_write)")
    p_chaos.add_argument("--dir", default=None, metavar="DIR",
                         help="scratch directory (default: a temp dir)")
    p_chaos.add_argument("--seed", type=int, default=11)
    p_chaos.add_argument("--stripes", type=int, default=12,
                         help="provisioned stripes (scenario size)")
    p_chaos.add_argument("--disk", type=int, default=3,
                         help="disk failed and repaired on the doomed daemon")
    p_chaos.add_argument("--crash-at", type=float, default=2.5e-5,
                         help="modeled second the owner daemon dies at "
                              "(mid-repair at the default geometry)")
    p_chaos.add_argument("--lease-ttl", type=float, default=0.6)
    p_chaos.add_argument("--heartbeat-interval", type=float, default=0.15)
    p_chaos.add_argument("--p99-budget", type=float, default=None,
                         help="wall-clock bound asserted on foreground p99 "
                              "(default 2.0s for failover, 0.3s for overload)")
    p_chaos.add_argument("--deadline", type=float, default=60.0,
                         help="overall scenario timeout in seconds")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the full JSON report")
    p_chaos.add_argument("--output", default=None, metavar="FILE",
                         help="also write the JSON report here")
    _add_observability_args(p_chaos)
    p_chaos.set_defaults(func=_observed(cmd_chaos))

    p_ver = sub.add_parser("version", help="print the package version")
    p_ver.set_defaults(func=cmd_version)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
