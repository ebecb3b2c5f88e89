"""EXP2 — average algorithm running time vs (n, k) (paper Figure 7(d-f)).

Measures the wall-clock cost of *deriving P_a* for HD-PSR-AP and HD-PSR-AS
across the paper's grid: (n, k) in {(6,4), (9,6), (14,10)}, stripe counts
from failed-disk sizes 100/150/200 GiB at 64 MiB chunks. HD-PSR-PA derives
nothing up front, so its running time is 0 by construction (not measured).

Paper shapes:
* AP and AS differ by orders of magnitude (paper: AS ~98% cheaper);
* both grow with the number of stripes.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core import ActivePreliminaryRepair, ActiveSlowerFirstRepair
from repro.utils.tables import AsciiTable
from repro.utils.units import GiB, MiB
from repro.workloads import PAPER_CODES, PAPER_DISK_SIZES, normal_transfer_times

from benchutil import alternating_medians, emit

RESULTS = {}


def stripe_count(disk_size: int, scale: int) -> int:
    return max(1, (disk_size // scale) // (64 * MiB))


def _mk_inputs(k, s):
    w = normal_transfer_times(s, k, mean=2.0, variance=4.0, ros=0.08, seed=3)
    return w.L


@pytest.mark.parametrize("nk", PAPER_CODES, ids=lambda nk: f"rs{nk[0]}_{nk[1]}")
@pytest.mark.parametrize("disk_size", PAPER_DISK_SIZES, ids=lambda d: f"{d // GiB}gib")
class TestSelectionRuntime:
    def test_ap_and_as_select(self, benchmark, nk, disk_size, scale):
        n, k = nk
        s = stripe_count(disk_size, scale)
        L = _mk_inputs(k, s)
        threshold = 2.0 * float(L.mean())
        ap = partial(ActivePreliminaryRepair().select, L, 2 * k)
        as_ = partial(ActiveSlowerFirstRepair().select, L, 2 * k, threshold)
        RESULTS[("ap", nk, disk_size)], RESULTS[("as", nk, disk_size)] = benchmark.pedantic(
            alternating_medians, args=(ap, as_), rounds=1, iterations=1
        )


def test_exp2_report(benchmark, scale, results_sink):
    """Aggregate the parametrised runs into the Figure 7(d-f) table."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep under --benchmark-only
    if not RESULTS:
        pytest.skip("selection benchmarks did not run")
    table = AsciiTable(
        ["(n,k)", "disk", "stripes", "AP (ms)", "AS (ms)", "AS saving"],
        title=f"EXP2: P_a-selection running time (scale 1/{scale})",
        float_fmt=".4f",
    )
    rows = []
    for nk in PAPER_CODES:
        for disk_size in PAPER_DISK_SIZES:
            ap = RESULTS.get(("ap", nk, disk_size))
            as_ = RESULTS.get(("as", nk, disk_size))
            if ap is None or as_ is None:
                continue
            s = stripe_count(disk_size, scale)
            saving = (1 - as_ / ap) * 100
            table.add_row(
                [f"({nk[0]},{nk[1]})", f"{disk_size // GiB}GiB/{scale}", s,
                 ap * 1e3, as_ * 1e3, f"{saving:.1f}%"]
            )
            rows.append({
                "n": nk[0], "k": nk[1], "stripes": s,
                "ap_us": ap * 1e6, "as_us": as_ * 1e6, "as_saving_pct": saving,
            })
    emit("Figure 7(d-f) — Experiment 2", table.render())
    results_sink("exp2", rows, meta={"scale": scale})

    # Paper shape: AS is dramatically cheaper than AP (the paper reports
    # ~98% at full scale; the gap widens with s, so at reduced scales we
    # only require a clear majority saving on the median timings).
    assert all(r["as_us"] < r["ap_us"] for r in rows)
    mean_saving = sum(r["as_saving_pct"] for r in rows) / len(rows)
    assert mean_saving > 30.0
