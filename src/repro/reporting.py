"""Generate EXPERIMENTS.md from benchmark artefacts.

Each benchmark writes ``benchmarks/results/<id>.json``; this module renders
them as Markdown next to the paper's reported numbers so the
paper-vs-measured record is regenerated, never hand-edited.

Usage: ``python -m repro report [--results DIR] [--output FILE]``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.utils.tables import render_table

#: What the paper reports, per experiment — the comparison targets.
PAPER_CLAIMS = {
    "fig4a": "ACWT increases with P_a and with ROS (Observation 2).",
    "fig4b": "Total repair rounds increase with P_r (Observation 3).",
    "exp1": (
        "All HD-PSR schemes repair faster than FSR; the gap widens with k. "
        "Paper peaks: HD-PSR-PA -71.7% at (6,4)/100 GiB; HD-PSR-AP -56.9% "
        "and HD-PSR-AS -50.46% at (14,10)/200 GiB."
    ),
    "exp2": (
        "HD-PSR-AS derives P_a ~98% faster than HD-PSR-AP on average; both "
        "grow with the stripe count; HD-PSR-PA has zero derivation cost."
    ),
    "exp3": "Repair time grows with chunk size; HD-PSR keeps its advantage at every size.",
    "exp4": "Selection running time falls as chunk size grows (fewer stripes); AS stays far below AP.",
    "exp5": (
        "Cooperative multi-disk repair cuts repair time; paper peaks: "
        "AP -24.2% (2 disks), AS -52.5% (3 disks), PA -30.8% (3 disks)."
    ),
    "ablation_memory": "Repo ablation (no paper counterpart): HD-PSR's edge is largest when memory is scarce.",
    "ablation_ros": "Repo ablation: the benefit vanishes on a homogeneous chassis and grows with slow-disk ratio.",
    "ablation_ap_model": "Repo ablation: AP's analytic T matches exact interval execution; slot-model deviation stays small.",
    "ablation_threshold": "Repo ablation: AS/PA are robust to the slow threshold across a broad basin below the slow factor.",
    "ablation_staleness": (
        "Repo ablation of the paper's section-4.3 motivation: active probes go stale "
        "between probing and repairing; PA's in-band timers do not."
    ),
    "durability": (
        "Repo extension quantifying the paper's motivation: faster repair shortens "
        "the coincident-failure window, improving 10-year loss probability and MTTDL."
    ),
    "wallclock": (
        "Repo extension: the headline comparison re-measured through the repair "
        "daemon (RepairService) over rate-paced disks serving one read at a time; "
        "actual elapsed seconds of each job, its certify re-read included, not a "
        "simulated clock (median and [min, max] of five alternating repetitions)."
    ),
    "wide_stripes": (
        "Repo extension into the ECWide [13] regime the paper's complexity analysis "
        "anticipates: reductions grow with stripe width while AS's selection cost "
        "stays flat and AP's grows."
    ),
    "vulnerability_order": (
        "Repo extension: after a backplane event, admitting the most-exposed stripes "
        "first slashes the time-to-safety at near-zero total-time cost."
    ),
    "robustness": (
        "Repo extension: recovery under injected mid-repair faults. Re-planning "
        "salvages each stripe's accumulated partial sums, so the chunks re-read "
        "after a casualty stay well below a full re-repair; unrecoverable stripes "
        "are reported, never raised."
    ),
    "cluster_failover": (
        "Repo extension: the multi-daemon cluster's kill-the-owner chaos "
        "scenario swept over lease TTLs — takeover latency tracks the "
        "TTL+heartbeat detector bound while hedged foreground reads keep "
        "p99 at milliseconds through the failover; every episode re-proves "
        "byte-identical handoff, zero duplicate writes, and epoch fencing."
    ),
    "overload": (
        "Repo extension: open-loop load swept past the hot disk's capacity "
        "with the brownout controller on vs off. Goodput climbs to the knee "
        "and saturates there either way, but only the controlled daemon "
        "keeps the successful-read p99 near the deadline budget past the "
        "knee — the uncontrolled one's tail grows with the standing queue."
    ),
    "scrub": (
        "Repo extension: the online scrub plane's two promises measured — "
        "silent-corruption detection latency tracks the inter-verify pause "
        "(every rotted chunk quarantined and read-repaired byte-identically "
        "at every rate), and a diurnal foreground workload sees the same "
        "p99 with the scrubber at full rate as with it off, because each "
        "run of verifies holds one background gate slot and yields it at "
        "the next chunk once a read queues on the disk."
    ),
}

TITLES = {
    "fig4a": "Figure 4(a) — ACWT vs P_a (Observation 2)",
    "fig4b": "Figure 4(b) — Repair rounds vs P_r (Observation 3)",
    "exp1": "Experiment 1 / Figure 7(a–c) — Single-disk repair time vs (n, k)",
    "exp2": "Experiment 2 / Figure 7(d–f) — Algorithm running time vs (n, k)",
    "exp3": "Experiment 3 / Figure 8(a) — Repair time vs chunk size",
    "exp4": "Experiment 4 / Figure 8(b) — Algorithm running time vs chunk size",
    "exp5": "Experiment 5 / Figure 9 — Multi-disk repair, naive vs cooperative",
    "ablation_memory": "Ablation — memory capacity sweep",
    "ablation_ros": "Ablation — slow-disk ratio sweep",
    "ablation_ap_model": "Ablation — AP analytic-model fidelity",
    "ablation_threshold": "Ablation — slow-threshold sensitivity",
    "ablation_staleness": "Ablation — probe staleness (active vs passive)",
    "durability": "Extension — durability consequence of repair speed",
    "wallclock": "Extension — wall-clock repair: the daemon over paced disks",
    "wide_stripes": "Extension — wide-stripe (k up to 128) regime",
    "vulnerability_order": "Extension — vulnerability-first multi-disk repair ordering",
    "robustness": "Extension — recovery outcomes under injected faults",
    "cluster_failover": "Extension — cluster failover: takeover latency and foreground p99",
    "overload": "Extension — overload knee: goodput and p99 vs offered load",
    "scrub": "Extension — scrub plane: detection latency and foreground politeness",
}

ORDER = [
    "fig4a", "fig4b", "exp1", "exp2", "exp3", "exp4", "exp5",
    "ablation_memory", "ablation_ros", "ablation_ap_model", "ablation_threshold",
    "ablation_staleness", "durability", "wallclock", "wide_stripes",
    "vulnerability_order", "robustness", "cluster_failover", "overload",
    "scrub",
]


def loss_report_rows(results: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten named hardened recoveries into report rows.

    ``results`` maps a scenario label to a
    :class:`~repro.core.recovery.RecoveryResult` whose ``loss`` is set
    (i.e. the run used ``faults=`` or ``policy=``). One row per scenario,
    suitable for a ``benchmarks/results/robustness.json`` artefact.
    """
    rows: List[Dict[str, Any]] = []
    for label, result in results.items():
        loss = result.loss
        if loss is None:
            raise ValueError(
                f"{label!r} was not a hardened recovery (result.loss is None)"
            )
        rows.append({
            "scenario": label,
            "algorithm": result.outcome.algorithm,
            "stripes": len(loss.stripes),
            "recovered": len(loss.recovered),
            "replanned": len(loss.replanned),
            "lost": len(loss.lost),
            "faults": sum(loss.faults_injected.values()),
            "replans": loss.replans,
            "fresh_restarts": loss.fresh_restarts,
            "chunks_salvaged": loss.salvaged_chunks,
            "chunks_reread": loss.reread_chunks,
            "checksum_failures": loss.checksum_failures,
            "resumed_stripes": loss.resumed_stripes,
            "replayed_chunks": loss.replayed_chunks,
            "chunks_rebuilt": result.data_path.chunks_rebuilt,
            "certified": result.certified,
            "exit_code": loss.exit_code,
        })
    return rows


def load_results(results_dir: Path) -> Dict[str, Dict[str, Any]]:
    """Load every ``*.json`` benchmark artefact keyed by experiment id.

    Files that aren't benchmark artefacts — e.g. the checked-in trace
    baseline summary used by the CI regression gate — are skipped.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for path in sorted(Path(results_dir).glob("*.json")):
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict) or "rows" not in payload:
            continue
        out[payload.get("experiment", path.stem)] = payload
    return out


def extract_preamble(report_path: Path) -> Optional[str]:
    """Pull the hand-written preamble out of an existing report.

    The preamble is whatever sits between the ``# EXPERIMENTS`` title and
    the generated ``Generated by ...`` marker line; re-rendering keeps it.
    """
    if not Path(report_path).exists():
        return None
    lines = Path(report_path).read_text().splitlines()
    start = end = None
    for i, line in enumerate(lines):
        if start is None and line.startswith("# "):
            start = i + 1
        elif line.startswith("Generated by `python -m repro report`"):
            end = i
            break
    if start is None or end is None:
        return None
    text = "\n".join(lines[start:end]).strip()
    return text or None


def _rows_to_markdown(rows: List[Dict[str, Any]]) -> str:
    """One table per run of rows with the same columns (an artefact may
    record two kinds of row, e.g. scrub's detection and foreground legs)."""
    if not rows:
        return "_no rows recorded_"
    return "\n\n".join(
        render_table(
            list(headers), [[row[h] for h in headers] for row in group],
            markdown=True, float_fmt=".3f",
        )
        for headers, group in itertools.groupby(rows, key=tuple)
    )


def _quantile_table(prom_path: Path) -> Optional[str]:
    """Render the latency percentiles of a ``.prom`` dump.

    Every histogram on :data:`~repro.obs.metrics.LATENCY_BUCKETS` (e.g. the
    daemon's read latency) becomes one row per label set, with p50/p90/p99
    in milliseconds estimated from its ``_bucket`` samples. Histograms on coarser edges are
    left out: their estimates could be off by the width of a whole bucket.
    Returns None when the dump has no such histogram.
    """
    from repro.obs import parse_prometheus_text
    from repro.obs.metrics import LATENCY_BUCKETS, bucket_quantile

    buckets: Dict[tuple, Dict[float, float]] = {}
    for (name, labels), value in parse_prometheus_text(prom_path.read_text()).items():
        label_map = dict(labels)
        le = label_map.pop("le", None)
        if le is None or not name.endswith("_bucket"):
            continue
        key = (name[:-len("_bucket")], tuple(sorted(label_map.items())))
        buckets.setdefault(key, {})[float(le)] = value
    qs = (0.5, 0.9, 0.99)
    body = []
    for (name, rest), counts in sorted(buckets.items()):
        ordered = sorted(counts)
        edges = ordered[:-1]  # the last one is +Inf
        if tuple(edges) != LATENCY_BUCKETS:
            continue
        cumulative = [counts[edge] for edge in ordered]
        label_str = "".join(f" {k}={v}" for k, v in rest)
        body.append([f"{name}{label_str}"]
                    + [bucket_quantile(q, edges, cumulative) * 1e3 for q in qs])
    if not body:
        return None
    headers = ["metric"] + [f"p{q * 100:g} (ms)" for q in qs]
    return render_table(headers, body, markdown=True, float_fmt=".3f")


def render_report(results_dir: Path, preamble: Optional[str] = None) -> str:
    """Render the full EXPERIMENTS.md body."""
    results = load_results(results_dir)
    lines: List[str] = []
    lines.append("# EXPERIMENTS — paper vs measured")
    lines.append("")
    if preamble:
        lines.append(preamble.strip())
        lines.append("")
    lines.append(
        "Generated by `python -m repro report` from `benchmarks/results/*.json` "
        "(regenerate the artefacts with `pytest benchmarks/ --benchmark-only -s`). "
        "Absolute times are simulated seconds on the modeled 36-disk chassis; the "
        "reproduction target is the *shape* of each paper result — who wins, by "
        "roughly what factor, and how trends move. Exp 2/4 report real wall-clock "
        "of this package's implementations."
    )
    lines.append("")
    for exp_id in ORDER:
        payload = results.get(exp_id)
        lines.append(f"## {TITLES.get(exp_id, exp_id)}")
        lines.append("")
        lines.append(f"**Paper:** {PAPER_CLAIMS.get(exp_id, '(repo-specific)')}")
        lines.append("")
        if payload is None:
            lines.append("_artefact missing — run the benchmark suite_")
            lines.append("")
            continue
        meta = payload.get("meta") or {}
        if meta:
            meta_str = ", ".join(f"{k}={v}" for k, v in meta.items())
            lines.append(f"**Measured** ({meta_str}):")
        else:
            lines.append("**Measured:**")
        lines.append("")
        lines.append(_rows_to_markdown(payload.get("rows", [])))
        lines.append("")
        prom_path = Path(results_dir) / f"{exp_id}.prom"
        if prom_path.exists():
            quantiles = _quantile_table(prom_path)
            if quantiles:
                lines.append("**Latency percentiles** (estimated from the "
                             f"histogram buckets of `{prom_path.name}`):")
                lines.append("")
                lines.append(quantiles)
                lines.append("")
    extra = sorted(set(results) - set(ORDER))
    for exp_id in extra:
        lines.append(f"## {exp_id}")
        lines.append("")
        lines.append(_rows_to_markdown(results[exp_id].get("rows", [])))
        lines.append("")
    return "\n".join(lines)


def write_report(
    results_dir: "str | Path",
    output: "str | Path",
    preamble: Optional[str] = None,
) -> Path:
    """Render and write the report; returns the output path."""
    output = Path(output)
    output.write_text(render_report(Path(results_dir), preamble=preamble))
    return output
