"""EXP4 — algorithm running time vs chunk size (paper Figure 8(b)).

Fixed 200 GiB (scaled) of data to repair; chunk size varies 8..256 MiB, so
the stripe count s varies inversely. Measures P_a-selection wall-clock for
HD-PSR-AP and HD-PSR-AS.

Paper shape: running time *decreases* as chunk size grows (fewer stripes),
and AS stays far below AP at every size.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core import ActivePreliminaryRepair, ActiveSlowerFirstRepair
from repro.utils.tables import AsciiTable
from repro.utils.units import GiB, MiB
from repro.workloads import normal_transfer_times

from benchutil import alternating_medians, emit

CHUNK_SIZES_MIB = [8, 16, 32, 64, 128, 256]
K = 6
DISK_SIZE = 200 * GiB

RESULTS = {}


def stripes_at(chunk_mib: int, scale: int) -> int:
    return max(1, (DISK_SIZE // scale) // (chunk_mib * MiB))


@pytest.mark.parametrize("chunk_mib", CHUNK_SIZES_MIB, ids=lambda c: f"{c}mib")
class TestSelectionRuntimeVsChunk:
    def test_ap_and_as_select(self, benchmark, chunk_mib, scale):
        s = stripes_at(chunk_mib, scale)
        L = normal_transfer_times(s, K, ros=0.08, seed=5).L
        threshold = 2.0 * float(L.mean())
        ap = partial(ActivePreliminaryRepair().select, L, 2 * K)
        as_ = partial(ActiveSlowerFirstRepair().select, L, 2 * K, threshold)
        RESULTS[("ap", chunk_mib)], RESULTS[("as", chunk_mib)] = benchmark.pedantic(
            alternating_medians, args=(ap, as_), rounds=1, iterations=1
        )


def test_exp4_report(benchmark, scale, results_sink):
    """Aggregate the parametrised runs into the Figure 8(b) table."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep under --benchmark-only
    if not RESULTS:
        pytest.skip("selection benchmarks did not run")
    table = AsciiTable(
        ["chunk", "stripes", "AP (ms)", "AS (ms)"],
        title=f"EXP4: selection running time vs chunk size (k={K}, scale 1/{scale})",
        float_fmt=".4f",
    )
    rows = []
    for chunk_mib in CHUNK_SIZES_MIB:
        ap = RESULTS.get(("ap", chunk_mib))
        as_ = RESULTS.get(("as", chunk_mib))
        if ap is None or as_ is None:
            continue
        s = stripes_at(chunk_mib, scale)
        table.add_row([f"{chunk_mib}MiB", s, ap * 1e3, as_ * 1e3])
        rows.append({"chunk_mib": chunk_mib, "stripes": s,
                     "ap_us": ap * 1e6, "as_us": as_ * 1e6})
    emit("Figure 8(b) — Experiment 4", table.render())
    results_sink("exp4", rows, meta={"scale": scale, "k": K})

    # Paper shapes: cost decreases with chunk size; AS cheaper than AP.
    assert rows[0]["ap_us"] > rows[-1]["ap_us"]
    assert all(r["as_us"] < r["ap_us"] for r in rows)
