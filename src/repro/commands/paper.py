"""The paper plane: ``repair``, ``multi``, ``faults``, ``observe``,
``durability``, ``run`` and ``report`` — fail a disk, run FSR or
HD-PSR-AP/AS/PA, compare.

``repair`` and ``multi`` accept ``--faults spec.json`` plus read-hardening
knobs (``--read-timeout``, ``--retries``, ``--hedge``) and ``--journal``;
with any of those the command runs the byte-exact data path under injected
faults (:func:`_run_hardened`) and its exit code reports the outcome: 0 =
clean recovery, 0 with a warning when re-planning was needed, 3 when data
was lost, 4 when a scripted crash interrupted it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional

from repro.commands import flags
from repro.core import (
    ALGORITHMS,
    cooperative_multi_disk_repair,
    naive_multi_disk_repair,
    recover_disk,
    recover_disks,
    repair_single_disk,
)
from repro.core.analysis import acwt_curve_vs_pa, observation1_table, rounds_curve_vs_pr
from repro.utils.tables import AsciiTable
from repro.utils.units import format_bytes, format_duration
from repro.workloads import normal_transfer_times


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
    elif loss.degraded or not result.certified:
        print(f"warning: recovery degraded — {len(loss.replanned)} stripe(s) "
              f"re-planned, {loss.fresh_restarts} restart(s), "
              f"{len(result.scrub.degraded)} not certified", file=sys.stderr)
    return loss.exit_code



def _journal_dir(args: argparse.Namespace, algorithm: str) -> "Optional[str]":
    """Resolve --journal for one scheme: DIR, or DIR/<scheme> under `all`.

    Per-scheme subdirectories keep `--algorithm all` runs from interleaving
    unrelated repairs in one journal (a journal records exactly one repair).
    """
    if not args.journal:
        return None
    if args.algorithm == "all":
        return os.path.join(args.journal, algorithm)
    return args.journal


def _run_hardened(
    args: argparse.Namespace,
    failed: List[int],
    recover: Callable,
    suffix: str = "",
) -> Optional[int]:
    """The fault-hardened branch of ``repair`` and ``multi``.

    Per scheme: a fresh data-bearing server with ``failed`` failed, then
    ``recover(server, algorithm, faults=, policy=, journal=, resume=)`` and
    its outcome table. Returns the exit code, or ``None`` when no hardening
    flag was given and the caller should run its timing comparison.
    """
    schedule, policy = flags.fault_setup(args)
    if args.resume and not args.journal:
        print("--resume needs --journal DIR (the journal to resume from)",
              file=sys.stderr)
        return 2
    if schedule is None and policy is None and not args.journal:
        return None
    from repro.errors import JournalError
    from repro.faults import EXIT_CRASHED, SimulatedCrash

    rc = 0
    for name in flags.algorithms_of(args):
        journal = _journal_dir(args, name)
        server = flags.build_server(args, with_data=True)
        for d in failed:
            server.fail_disk(d)
        try:
            result = recover(
                server, ALGORITHMS[name](),
                faults=schedule, policy=policy,
                journal=journal, resume=args.resume,
            )
        except SimulatedCrash as crash:
            print(f"{name}{suffix}: {crash}", file=sys.stderr)
            if journal:
                print(f"repair interrupted; resume with: --journal {journal} "
                      "--resume", file=sys.stderr)
            return EXIT_CRASHED
        except JournalError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        rc = max(rc, _report_hardened(f"{name}{suffix}", result))
    return rc


def cmd_repair(args: argparse.Namespace) -> int:
    rc = _run_hardened(
        args, [args.disk],
        lambda server, algorithm, **hardening: recover_disk(
            server, algorithm, args.disk, **hardening),
    )
    if rc is not None:
        return rc
    algos = flags.algorithms_of(args)
    table = AsciiTable(
        ["scheme", "repair time", "vs FSR", "ACWT", "P_a", "P_r", "selection"],
        title=(f"Single-disk recovery: RS({args.n},{args.k}), "
               f"{args.disk_size}/disk, chunk {args.chunk_size}, "
               f"ROS {args.ros:.0%}, seed {args.seed}"),
    )
    baseline: Optional[float] = None
    for name in algos:
        server = flags.build_server(args)
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
    failed = list(range(args.failed))
    rc = _run_hardened(
        args, failed,
        lambda server, algorithm, **hardening: recover_disks(
            server, algorithm, failed, **hardening),
        suffix=" (cooperative)",
    )
    if rc is not None:
        return rc
    table = AsciiTable(
        ["algorithm", "mode", "repair time", "chunks read", "data read"],
        title=(f"Multi-disk recovery: {args.failed} failed disk(s), "
               f"RS({args.n},{args.k}), {args.disk_size}/disk, seed {args.seed}"),
    )
    for name in flags.algorithms_of(args):
        for cooperative in (False, True):
            server = flags.build_server(args)
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
    for name in flags.algorithms_of(args):
        server = flags.build_server(args)
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



def add_repair(sub) -> None:
    p = sub.add_parser("repair", help="compare single-disk recovery schemes")
    flags.add_server_args(p)
    p.add_argument("--disk", type=int, default=0, help="disk to fail")
    flags.add_algorithm_arg(p)
    p.add_argument("--timeline", default=None,
                   help="write per-chunk timelines as CSV (one file per scheme)")
    flags.add_fault_args(p)
    flags.add_observability_args(p)
    p.set_defaults(func=flags.observed(cmd_repair))


def add_multi(sub) -> None:
    p = sub.add_parser("multi", help="multi-disk recovery, naive vs cooperative")
    flags.add_server_args(p)
    p.add_argument("--failed", type=int, default=2, help="number of failed disks")
    flags.add_algorithm_arg(p)
    flags.add_fault_args(p)
    flags.add_observability_args(p)
    p.set_defaults(func=flags.observed(cmd_multi))


def add_faults(sub) -> None:
    p = sub.add_parser(
        "faults", help="generate a reproducible fault-injection spec (JSON)"
    )
    p.add_argument("--seed", type=int, default=0, help="generator RNG seed")
    p.add_argument("--events", type=int, default=4,
                   help="number of fault events to draw")
    p.add_argument("--horizon", type=float, default=10.0,
                   help="events land in [0, horizon) modeled seconds")
    p.add_argument("--num-disks", type=int, default=36,
                   help="disk-id range to target")
    p.add_argument("--stripes", type=int, default=0,
                   help="stripe-id range for sector errors (0 disables them)")
    p.add_argument("--shards", type=int, default=9,
                   help="shard-id range for sector errors (the code's n)")
    p.add_argument("--kinds", default=",".join(
        ("disk_fail", "sector_error", "slow", "hang")),
        help="comma-separated event kinds to draw from")
    p.add_argument("--max-disk-fails", type=int, default=1,
                   help="cap on permanent disk failures (extras become slow)")
    p.add_argument("--output", default=None, metavar="SPEC.json",
                   help="write the spec here (default: print to stdout)")
    p.set_defaults(func=cmd_faults)


def add_observe(sub) -> None:
    p = sub.add_parser("observe", help="print the Observation 1-3 tables")
    p.add_argument("--stripes", type=int, default=100)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--memory", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_observe)


def add_durability(sub) -> None:
    p = sub.add_parser(
        "durability", help="Monte-Carlo data-loss risk per repair scheme"
    )
    flags.add_server_args(p)
    flags.add_algorithm_arg(p)
    p.add_argument("--afr", type=float, default=0.5,
                   help="annualised failure rate of each disk")
    p.add_argument("--weibull-shape", type=float, default=None,
                   help="use a Weibull lifetime with this shape instead of exponential")
    p.add_argument("--mission-years", type=float, default=10.0)
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--amplify", type=float, default=2000.0,
                   help="scale the repair window (models full-capacity disks)")
    flags.add_observability_args(p)
    p.set_defaults(func=flags.observed(cmd_durability))


def add_run(sub) -> None:
    p = sub.add_parser("run", help="run a JSON experiment spec")
    p.add_argument("spec", help="path to the experiment spec (JSON)")
    p.add_argument("--output", default=None, help="write result rows to this JSON file")
    flags.add_observability_args(p)
    p.set_defaults(func=flags.observed(cmd_run))


def add_report(sub) -> None:
    p = sub.add_parser(
        "report", help="render EXPERIMENTS.md from benchmark artefacts"
    )
    p.add_argument("--results", default="benchmarks/results",
                   help="directory of benchmark JSON artefacts")
    p.add_argument("--output", default=None,
                   help="write to this file instead of stdout")
    p.set_defaults(func=cmd_report)
