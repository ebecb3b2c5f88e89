#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from benchmark artefacts.

Run after ``pytest benchmarks/ --benchmark-only -s``:

    python tools/update_experiments.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.reporting import write_report

PREAMBLE = """\
Reproduction record for **HD-PSR** (Wang et al., ICPP 2022). The paper's
testbed was an EC2 `d3en.12xlarge` with 36 SATA disks; this repo runs the
same recovery schedules on a seeded simulation of that chassis (see
DESIGN.md section 2 for the substitution argument). Headline artefacts below
were produced at `HDPSR_BENCH_SCALE=4` (25-50 GiB per failed disk instead
of 100-200 GiB); relative reductions are scale-invariant in this model
because all schemes process the same stripe population.

**Shape agreement summary**

| paper claim | measured here | verdict |
|---|---|---|
| Fig 2: FSR 7 units / ACWT 1.625 vs PSR 5 / 0.375 | exact match (tests/test_motivation_fig2.py) | reproduced exactly |
| Fig 6: naive 15 chunk reads vs cooperative 9 | exact match (tests/test_multi_disk.py) | reproduced exactly |
| Obs 1-3 (Fig 3-4) | ACWT rises with P_a and ROS; TR rises with P_r | reproduced |
| Exp 1: HD-PSR beats FSR, gap widens with k; paper peaks 50.5-71.7% | 26-54% reductions, monotone in k; PA strongest at (6,4), AP strongest active scheme at (14,10) | shape reproduced; magnitudes ~20 pts below paper peaks (the paper's disks show deeper slow-disk skew than our 4x bimodal model) |
| Exp 2: AS ~98% cheaper than AP, both grow with s | AS ~60-90% cheaper at 1/4 scale on median timings (the gap widens with s toward the paper's figure); growth with s and k reproduced | shape reproduced |
| Exp 3: repair time grows with chunk size, HD-PSR keeps winning | reproduced (~36-44% best reduction across 8-256 MiB) | shape reproduced |
| Exp 4: selection time falls with chunk size; AS << AP | reproduced | shape reproduced |
| Exp 5: cooperative repair up to 52.5% faster at 3 failures | ~0% (1 disk) -> ~19% (2) -> ~32% (3), monotone | shape reproduced; magnitude tracks stripe-set overlap, which grows with disk fill |
| Headline on a real clock (repo extension): HD-PSR repairs faster than FSR | through the repair daemon over paced disks, 226 stripes, median of 5: PA -32.6%, AS -26.8%, AP +9.6% | AS and PA reproduced; AP loses. AP admits stripes in ascending order of their reduced time `L_s`, so the stripes that touch the four slow disks all come last and queue on those disks' one-read-at-a-time gates; FSR, AS and PA admit in stripe order. Admitted in stripe order, AP's plans beat FSR in 3 of 3 real-clock runs (medians 5.12 s vs 6.51 s; ROADMAP.md finding 1) |

Beyond the paper, the repo adds measured extensions: durability (MTTDL)
consequences, a wall-clock rerun of the headline comparison through the
repair daemon over paced disks, and a probe-staleness ablation of the
active-vs-passive design choice — all recorded below.

Three modeled extensions were retired with their modules (`ec/lrc.py`,
`sim/foreground.py`, `core/sliced.py`) and benchmarks. Their last
verdicts, in modeled seconds:

- *LRC vs RS (related work, paper section 6).* Under HD-PSR-AP, RS(9,6)
  repaired 41.4% faster than under FSR (1618 -> 949), while LRC(6,2,2)'s
  3-chunk local repairs gained nothing (613 -> 613, 0.07% slower). A local
  repair leaves no memory contention for HD-PSR to remove, so code-level
  and schedule-level acceleration overlap rather than stack.
- *Degraded reads during repair.* With foreground reads granted memory
  slots first, FSR's repair took 1205 s and HD-PSR-AP's 894, and the
  degraded-read p99 was 42.6 vs 40.4: HD-PSR finished sooner without a
  worse read tail. Degraded reads are now measured on the daemon
  (`benchmarks/e2e/`).
- *Slice pipelining (Repair Pipelining, Li et al.).* With disks serving
  one request at a time, 16 slices per chunk beat chunk-granular HD-PSR-AP
  at zero per-request overhead (322 vs 458). At 15% overhead per request
  the best slicing (2 slices, 457) only ties it, and 16 slices take 679:
  a realistic per-request cost collapses the optimum back to chunk rounds.
"""


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    results = root / "benchmarks" / "results"
    if not results.exists():
        print("no benchmark artefacts; run pytest benchmarks/ --benchmark-only first",
              file=sys.stderr)
        return 1
    path = write_report(results, root / "EXPERIMENTS.md", preamble=PREAMBLE)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
