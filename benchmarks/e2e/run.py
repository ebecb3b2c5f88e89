"""The real-bytes benchmark of the ``hdpsr serve`` daemon. See README.md.

    python3 benchmarks/e2e/run.py --workload chunks_64k --seed 1 --seconds 40 --trace 0

launches real daemons over a file-backed store (fsync on), drives them
over the wire, checks every byte, prints every metric by name with its
unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` list (measured with tracing
off, timings in reference seconds: see ``lifecycle.py``); with
``--trace 1`` its ``per_layer`` list, taken from a separate run whose
daemons start through ``traced_serve.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import traced_serve  # noqa: E402
from lifecycle import REPO, SRC, Run, leftover_processes  # noqa: E402
from workloads import N, ROUNDS, SHAPES, Shape  # noqa: E402

SPEC_PATH = REPO / "BENCHMARK.json"

#: Per-layer metrics that are counts of work and must repeat exactly for
#: one seed — the only layer numbers a later issue may claim *as counts*.
#: (Journal bytes, and so the bytes checksummed, are not among them: each
#: record carries the modeled clock as decimal text, whose length moves by
#: a few bytes with the order concurrent stripes finish in.)
EXACT_COUNTS = (
    "repair.checksum.calls", "repair.gf.calls", "repair.gf.bytes",
    "repair.store_get.calls", "repair.store_get.bytes",
    "repair.store_put.calls", "repair.store_put.bytes",
    "repair.journal.calls", "repair.fsync.calls", "repair.plan.calls",
    "repair.reads_per_stripe", "repair.read_bytes_per_lost_byte",
    "repair.write_bytes_per_lost_byte",
)

#: Throughputs the traced run repeats as ``trace.<name>``: against the
#: untraced values they give the tracing overhead.
OVERHEAD_OF = ("repair_mbps", "read_rps", "scrub_mbps")

#: phase prefix -> (window, {metric stem: (span name, keys reported)}).
#: ``calls``/``bytes`` count work, ``busy_s`` is wall time inside the
#: layer's spans (children and waiting included), ``self_s`` the CPU it
#: burned itself (children subtracted).
BUDGETS = {
    "repair": ("repair_idle", {
        "checksum": ("checksum", ("calls", "bytes", "self_s")),
        "gf": ("gf", ("calls", "bytes", "self_s")),
        "ec_decode": ("ec.decode", ("calls", "self_s")),
        "ec_encode": ("ec.encode", ("calls", "self_s")),
        "store_get": ("store.get", ("calls", "bytes", "self_s")),
        "store_put": ("store.put", ("calls", "bytes", "self_s")),
        "journal": ("journal", ("calls", "busy_s", "self_s")),
        "fsync": ("device.fsync", ("calls", "busy_s")),
        "writer": ("writer.put_many", ("calls", "busy_s")),
        "plan": ("core.plan", ("calls", "self_s")),
        "certify": ("service.certify", ("busy_s", "self_s")),
        "protocol": ("protocol", ("self_s",)),
    }),
    "read": ("read_closed", {
        "checksum": ("checksum", ("calls", "self_s")),
        "gf": ("gf", ("self_s",)),
        "ec_decode": ("ec.decode", ("calls", "self_s")),
        "store_get": ("store.get", ("calls", "self_s")),
        "protocol": ("protocol", ("calls", "bytes", "self_s")),
        "dispatch": ("netserver.dispatch", ("calls", "busy_s")),
    }),
    "scrub": ("scrub", {
        "checksum": ("checksum", ("bytes", "self_s")),
        "store_verify": ("store.verify", ("calls", "self_s")),
        "fsync": ("device.fsync", ("calls",)),
    }),
}


def fingerprint(seed: int, seconds: float) -> dict:
    """Where and on what this run was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_crc32c_importable": importlib.util.find_spec("crc32c") is not None,
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
    }


def _layer_metrics(run: Run, values: Dict[str, float]) -> None:
    """Fold the traced daemons' span dumps into per-layer numbers, summed
    over the run's cycles."""
    empty = {"calls": 0, "bytes": 0, "busy_s": 0.0, "self_s": 0.0}
    values["trace.missing_hooks"] = 0
    rows: Dict[str, Dict[str, Dict[str, float]]] = {prefix: {} for prefix in BUDGETS}
    for daemon in run.daemons:
        if not daemon.spans.is_file():
            continue  # killed after a failed repair: it left no dump
        dump = json.loads(daemon.spans.read_text())
        values["trace.missing_hooks"] = max(
            values["trace.missing_hooks"], len(dump["missing"]))
        for prefix, (window, _stems) in BUDGETS.items():
            if daemon.scrub != (prefix == "scrub"):
                continue
            # Span ids are a daemon's own, and only its spans begin inside
            # its slices of the window.
            for name, row in traced_serve.summarize(
                    dump["spans"], run.windows[window]).items():
                total = rows[prefix].setdefault(name, dict(empty))
                for key, value in row.items():
                    total[key] += value
    for prefix, (_window, stems) in BUDGETS.items():
        for stem, (span_name, keys) in stems.items():
            for key in keys:
                values[f"{prefix}.{stem}.{key}"] = rows[prefix].get(span_name, empty)[key]
        # The daemons' CPU over the window that no span covers: the event
        # loop, asyncio, thread hand-offs, the interpreter itself.
        values[f"{prefix}.unattributed_s"] = values[f"{prefix}.cpu_s"] - sum(
            row["self_s"] for row in rows[prefix].values())

    lost = run.shape.cycles * sum(
        len(run.lost[disk]) for disk, loaded in ROUNDS if not loaded)
    lost_bytes = lost * run.shape.chunk_size
    gets = rows["repair"].get("store.get", empty)
    puts = rows["repair"].get("store.put", empty)
    batches = rows["repair"].get("writer.put_many", empty)
    # The certification scrub re-reads all n shards of every repaired
    # stripe; the rest of the window's reads are the rebuild's own.
    values["repair.reads_per_stripe"] = (gets["calls"] - N * lost) / lost
    values["repair.read_bytes_per_lost_byte"] = gets["bytes"] / lost_bytes
    values["repair.write_bytes_per_lost_byte"] = puts["bytes"] / lost_bytes
    values["repair.writer.batch_mean"] = batches["bytes"] / max(1, batches["calls"])


def run_workload(
    name: str, shape: Shape, seed: int, seconds: float, traced: bool,
    workdir: Path, direct_window: float = 0.1,
) -> dict:
    """One run of one workload; its full result record."""
    rundir = Path(tempfile.mkdtemp(prefix=f"{name}-t{int(traced)}-", dir=workdir))
    run = Run(shape, seed, seconds, traced, rundir)
    started = time.monotonic()
    try:
        asyncio.run(run.run())
        values = dict(run.values)
        if traced:
            _layer_metrics(run, values)
            values.update(layers.measure(shape, seed, rundir, window=direct_window))
            # The traced run's own throughput: against the untraced medians
            # of the same names it gives the tracing overhead.
            for metric in OVERHEAD_OF:
                values[f"trace.{metric}"] = values[metric]
    finally:
        leftovers = leftover_processes(rundir)
        for pid in leftovers:
            os.kill(pid, signal.SIGKILL)
    return {
        "workload": name,
        "traced": traced,
        "values": values,
        "ops_attempted": run.attempted,
        "ops_failed": run.failed,
        "byte_mismatches": run.mismatches,
        "errors": dict(run.errors),
        "samples": run.samples,
        "raw": run.raw,
        "windows": run.windows,
        "host_speed": [run.host.times, run.host.speeds],
        "windows_s": {k: sum(b - a for a, b in v) for k, v in run.windows.items()},
        "window_too_short": run.too_short,
        "setups_s": run.setups,
        "leftover_processes": leftovers,
        "daemon_log_tails": run.log_tails,
        "elapsed_s": time.monotonic() - started,
    }


def contract_line(result: dict, spec: dict) -> dict:
    """The driver's last-line object for one result."""
    wanted = spec["per_layer"] if result["traced"] else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        # A layer whose hook or function is gone reads 0, by design; an
        # end-to-end metric must exist.
        value = result["values"].get(entry["name"], 0.0 if result["traced"] else None)
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": result["byte_mismatches"] == 0 and not result["leftover_processes"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    }


def print_result(result: dict, spec: dict) -> None:
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} ({mode}, {result['elapsed_s']:.1f} s) ==")
    for name in sorted(result["values"]):
        unit = units.get(name, "%" if name.startswith("trace.overhead_pct.") else "")
        print(f"  {name:42s} {result['values'][name]:14.4f} {unit}")
    print(f"  ops attempted {result['ops_attempted']}, failed {result['ops_failed']}, "
          f"byte mismatches {result['byte_mismatches']}, errors {result['errors']}")
    print(f"  samples {result['samples']}")
    print("  windows " + ", ".join(
        f"{k} {v:.2f} s" for k, v in sorted(result["windows_s"].items())))
    if result["window_too_short"]:
        print(f"  window_too_short: {result['window_too_short']}")
    for name, tail in result["daemon_log_tails"].items():
        print(f"  --- {name} daemon log tail ---\n{tail}")


def selftest(spec: dict, workdir: Path) -> int:
    """Plumbing check at tiny sizes (a few seconds a run): names, units,
    sample counts, windows, and exact counts repeating."""
    problems: List[str] = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(SHAPES):
        problems.append(f"workloads {names} != shapes {sorted(SHAPES)}")
    allowed = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
    declared = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    for name, unit in declared.items():
        if not set(name) <= allowed or not unit:
            problems.append(f"bad name or unit: {name!r} {unit!r}")
    repeat: Dict[str, float] = {}
    for index, name in enumerate(names):
        shape = SHAPES[name].tiny()
        # The first workload also runs untraced, and traced twice for the
        # exact counts; a traced run computes the end-to-end values too.
        for traced in (False, True, True) if index == 0 else (True,):
            result = run_workload(name, shape, 1, 3.0, traced, workdir,
                                  direct_window=0.01)
            line = contract_line(result, spec)
            if not line["correct"] or line["failed"]:
                problems.append(f"{name}: correct={line['correct']} failed={line['failed']}")
            if not result["samples"] or not result["windows_s"]:
                problems.append(f"{name}: no sample counts or windows reported")
            emitted = set(result["values"])
            wanted = {e["name"] for e in spec["end_to_end"]}
            if traced:
                wanted |= {e["name"] for e in spec["per_layer"]}
                for extra in sorted(emitted - set(declared)):
                    problems.append(f"{name}: emits {extra}, not in BENCHMARK.json")
                counts = {k: result["values"][k] for k in EXACT_COUNTS}
                if index == 0 and repeat and repeat != counts:
                    problems.append(f"exact counts moved: {repeat} != {counts}")
                repeat = repeat or counts
            for missing in sorted(wanted - emitted):
                problems.append(f"{name}: BENCHMARK.json names {missing}, not emitted")
    for problem in problems:
        print("selftest:", problem, file=sys.stderr)
    print(f"selftest: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(SHAPES),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds the daemon's seed and, offset, the "
                             "client's targets and arrivals")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: start the daemons through traced_serve.py "
                             "and report the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="run every workload untraced, then traced, and "
                             "report the tracing overhead")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the full report (compare.py's input)")
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="holds stores, journals, port files, daemon logs "
                             "and span dumps (default: a temp dir, removed)")
    parser.add_argument("--selftest", action="store_true",
                        help="tiny-size plumbing check (< 30 s)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file() or not SPEC_PATH.is_file():
        print(f"run.py: no hdpsr source under {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC_PATH.read_text())
    if args.workdir:
        workdir, temporary = Path(args.workdir).resolve(), False
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        base = REPO / ".bench_e2e"
        base.mkdir(exist_ok=True)
        workdir, temporary = Path(tempfile.mkdtemp(prefix="run-", dir=base)), True
    try:
        if args.selftest:
            return selftest(spec, workdir)
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        report = {"fingerprint": fingerprint(args.seed, seconds), "results": []}
        print("fingerprint: " + json.dumps(report["fingerprint"], sort_keys=True))
        status = 0
        for name in args.workload or [w["name"] for w in spec["workloads"]]:
            untraced = None
            for traced in (False, True) if args.traced else (bool(args.trace),):
                result = run_workload(name, SHAPES[name], args.seed, seconds,
                                      traced, workdir)
                if traced and untraced is not None:
                    for metric in OVERHEAD_OF:
                        base_value = untraced["values"][metric]
                        result["values"][f"trace.overhead_pct.{metric}"] = (
                            100.0 * (base_value - result["values"][metric]) / base_value)
                untraced = untraced or result
                report["results"].append(result)
                print_result(result, spec)
                line = contract_line(result, spec)
                if not line["correct"]:
                    status = 1
                print(json.dumps(line), flush=True)
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True))
        return status
    finally:
        if temporary:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
