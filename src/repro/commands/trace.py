"""``hdpsr trace`` — analyze captured traces: summarize / blame / diff."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.utils.tables import AsciiTable
from repro.utils.units import format_duration


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


def add_trace(sub) -> None:
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
