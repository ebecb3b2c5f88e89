"""WALLCLOCK — the headline comparison measured with a real clock.

Repo extension: everything else simulates transfer timelines; this bench
repairs real RS-encoded bytes with real threads against rate-paced disks
(one request at a time per disk, heterogeneous rates) and reports measured
elapsed seconds. It is the closest Python analogue of the paper's Go
prototype on the EC2 testbed, and doubles as validation that the simulated
executors' ranking carries over to an actual parallel data path.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ActivePreliminaryRepair,
    ActiveSlowerFirstRepair,
    FullStripeRepair,
    PassiveRepair,
    RepairContext,
)
from repro.core.repair_job import _disk_id_matrix
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import UniformProfile
from repro.io import PacedDiskArray, WallClockRepairExecutor
from repro.utils.tables import AsciiTable

from benchutil import emit

ALGOS = [FullStripeRepair, ActivePreliminaryRepair, ActiveSlowerFirstRepair, PassiveRepair]


def build_server():
    cfg = HDSSConfig(
        num_disks=18, n=6, k=4, chunk_size=8 * 1024, memory_chunks=8, spares=2,
        profile=UniformProfile(100e6), placement="random", seed=42,
    )
    server = HighDensityStorageServer(cfg)
    server.provision_stripes(72, with_data=True)
    for d in (1, 2, 5, 7):
        server.degrade_disk(d, 8.0)
    server.fail_disk(0)
    return server


def run_grid():
    server = build_server()
    stripe_indices, survivor_ids, L = server.transfer_time_matrix([0], jittered=False)
    ctx_disks = _disk_id_matrix(server, stripe_indices, survivor_ids)
    rows = []
    baseline = None
    for factory in ALGOS:
        algo = factory()
        ctx = RepairContext(disk_ids=ctx_disks)
        plan = algo.build_plan(L, server.config.memory_chunks, context=ctx)
        paced = PacedDiskArray.from_server(server, time_scale=0.02)
        executor = WallClockRepairExecutor(
            server.code, server.layout, server.store, paced,
            memory_chunks=server.config.memory_chunks,
        )
        stats = executor.repair(plan, stripe_indices, survivor_ids, [0])
        if baseline is None:
            baseline = stats.elapsed_seconds
        rows.append({
            "algorithm": algo.name,
            "wall_seconds": stats.elapsed_seconds,
            "reduction_pct": (1 - stats.elapsed_seconds / baseline) * 100,
            "chunks_read": stats.chunks_read,
            "peak_memory": stats.peak_memory_chunks,
        })
    return rows


def test_wallclock_headline(benchmark, results_sink):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    table = AsciiTable(
        ["algorithm", "wall time (s)", "vs FSR", "chunks", "peak mem"],
        title="Wall-clock repair: real threads, paced disks, real bytes",
        float_fmt=".3f",
    )
    for r in rows:
        table.add_row([
            r["algorithm"], r["wall_seconds"],
            "baseline" if r["algorithm"] == "fsr" else f"{-r['reduction_pct']:+.1f}%",
            r["chunks_read"], r["peak_memory"],
        ])
    emit("Wall-clock headline", table.render())
    results_sink("wallclock", rows)

    by = {r["algorithm"]: r for r in rows}
    for name in ("hd-psr-ap", "hd-psr-as"):
        assert by[name]["wall_seconds"] < by["fsr"]["wall_seconds"]
        assert by[name]["peak_memory"] <= 8
