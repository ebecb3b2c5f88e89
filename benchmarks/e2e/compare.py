"""Compare two sets of ``run.py --out`` reports: ``compare.py A.json… -- B.json…``

One row per metric and workload: both medians with their quartiles, the
ratio B/A (A is the base), the bound BENCHMARK.json fixes, and a verdict:

``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the distance
                between A's own quartiles
``same``        neither
``unresolved``  the run-to-run spread of either side exceeds the bound and
                the two sides' runs interleave: no verdict can be trusted

End-to-end metrics are taken from untraced runs only. Per-layer metrics
have no bound and get no verdict, except the exact counts
(``run.EXACT_COUNTS``), which must be identical: ``same`` or ``DIFFERS``;
those an untraced run reports too (``wall.*``, ``client.*``, the scraped
ones) are listed for both kinds of run, the traced ones marked ``/t``.
Run it on two sets of runs of one commit for the A/A check.
Exit code 1 if any row is ``worse`` or ``DIFFERS``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXACT_COUNTS, SPEC_PATH  # noqa: E402

Key = Tuple[str, bool, str]  # (workload, traced, metric)


def load(paths: List[str]) -> Dict[Key, List[float]]:
    out: Dict[Key, List[float]] = {}
    for path in paths:
        for result in json.loads(Path(path).read_text())["results"]:
            for metric, value in result["values"].items():
                out.setdefault(
                    (result["workload"], result["traced"], metric), []).append(value)
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (bm - am) / abs(am) if am else 0.0
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    interleave = not (max(a) < min(b) or max(b) < min(a))
    if spread > bound and interleave:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < 0 and abs(bm - am) > (a3 - a1):
        return "better"
    return "same"


def main(argv: List[str]) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    spec = json.loads(SPEC_PATH.read_text())
    bounded = {e["name"]: e for e in spec["end_to_end"]}
    status = 0
    print(f"{'workload':14s} {'metric':40s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'bound':>6s}  verdict")
    for key in sorted(set(side_a) & set(side_b)):
        workload, traced, metric = key
        entry = bounded.get(metric)
        if traced and entry is not None:
            continue  # end-to-end metrics come from untraced runs only
        if traced:
            workload += "/t"
        a, b = side_a[key], side_b[key]
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        if entry is not None:
            word, bound = verdict(a, b, entry["better"], entry["bound"]), f"{entry['bound']:.2f}"
        elif metric in EXACT_COUNTS:
            word, bound = ("same" if set(a) == set(b) and len(set(a)) == 1 else "DIFFERS"), "exact"
        else:
            word, bound = "", ""
        if word in ("worse", "DIFFERS"):
            status = 1
        ratio = f"{bm / am:7.3f}" if am else "    n/a"
        print(f"{workload:14s} {metric:40s} "
              f"{am:12.4f} [{a1:9.4f},{a3:9.4f}] "
              f"{bm:12.4f} [{b1:9.4f},{b3:9.4f}] {ratio} {bound:>6s}  {word}")
    print(f"A: {split} report(s), B: {len(argv) - split - 1} report(s); ratios are B/A")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
