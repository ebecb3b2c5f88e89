"""WALLCLOCK — the headline comparison measured with a real clock, through the daemon.

Repo extension: everything else simulates transfer timelines; this bench
runs the repair daemon (:class:`~repro.service.RepairService`) over real
RS-encoded bytes on rate-paced disks and reports measured elapsed seconds.
Each ``get`` sleeps its bytes at the disk's rate
(:class:`~repro.service.chaos_rig.PacedStore`: the simulated server's
bandwidths after the degrade, x0.02) and a gate of width 1 lets a disk
serve one read at a time. What the job does beyond the reads is the
daemon's own: its ``ActiveProber`` plan, gates held for a whole round,
the write-back, and ``certify`` re-reading every rebuilt chunk at spare
speed. It is the closest Python analogue of the paper's Go prototype on
the EC2 testbed, and checks that the simulated ranking carries over to
the daemon's data path.
"""

from __future__ import annotations

import asyncio
import statistics
from concurrent.futures import ThreadPoolExecutor

from repro.core import ALGORITHMS
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import UniformProfile
from repro.service import RepairService, ServiceConfig
from repro.service.chaos_rig import CountingStore, PacedStore
from repro.utils.tables import AsciiTable

from benchutil import emit

ALGOS = ["fsr", "hd-psr-ap", "hd-psr-as", "hd-psr-pa"]
K, C, FAILED, SLOW = 4, 8, 0, (1, 2, 5, 7)
#: 640 stripes put 226 on disk 0 at seed 42: the job repairs >= 200.
STRIPES = 640
REPETITIONS = 5
#: Paced rates are the simulated bandwidths times this, so a repair the
#: model puts at minutes runs in seconds.
TIME_SCALE = 0.02


def build_server():
    """The chassis with disks 1, 2, 5, 7 degraded 8x and disk 0 failed,
    over a counting, paced in-memory store."""
    server = HighDensityStorageServer(HDSSConfig(
        num_disks=18, n=6, k=K, chunk_size=8 * 1024, memory_chunks=C, spares=2,
        profile=UniformProfile(100e6), placement="random", seed=42,
    ))
    server.provision_stripes(STRIPES, with_data=True)
    for d in SLOW:
        server.degrade_disk(d, 8.0)
    server.store = CountingStore(PacedStore(server.store, rates={
        disk.disk_id: disk.current_bandwidth * TIME_SCALE for disk in server.disks
    }))
    server.fail_disk(FAILED)
    return server


def repair_once(algorithm: str) -> dict:
    """One repair of disk 0 through the daemon, on a fresh server."""
    server = build_server()

    async def run():
        # Enough threads for every read in flight: the pool never caps the
        # overlap, the memory and the per-disk gates do.
        asyncio.get_running_loop().set_default_executor(ThreadPoolExecutor(32))
        service = RepairService(server, ALGORITHMS[algorithm](), ServiceConfig(
            max_concurrent_stripes=C, per_disk_reads=1, durable_journal=False,
        ))
        try:
            return await service.submit_repair(FAILED).wait()
        finally:
            await service.close()

    result = asyncio.run(run())
    store = server.store
    return {
        "wall_seconds": result.wall_seconds,
        "stripes": result.stripes_repaired,
        "chunks_read": sum(store.read_counts.values()),
        "certify_verifies": sum(store.verify_counts.values()),
        "peak_memory": server.memory.peak,
        "certified": result.certified,
    }


def only(runs, key):
    """The one value every run agrees on (exact counts do not vary)."""
    values = {run[key] for run in runs}
    assert len(values) == 1, (key, values)
    return values.pop()


def run_grid():
    runs = {name: [] for name in ALGOS}
    for rep in range(REPETITIONS):
        for name in ALGOS if rep % 2 == 0 else reversed(ALGOS):
            runs[name].append(repair_once(name))
    baseline = statistics.median(r["wall_seconds"] for r in runs["fsr"])
    rows = []
    for name in ALGOS:
        walls = [r["wall_seconds"] for r in runs[name]]
        median = statistics.median(walls)
        rows.append({
            "algorithm": name,
            "wall_seconds": median,
            "wall_min": min(walls),
            "wall_max": max(walls),
            "reduction_pct": (1 - median / baseline) * 100,
            "stripes": only(runs[name], "stripes"),
            "chunks_read": only(runs[name], "chunks_read"),
            "certify_verifies": only(runs[name], "certify_verifies"),
            "peak_memory": max(r["peak_memory"] for r in runs[name]),
            "certified": all(r["certified"] for r in runs[name]),
        })
    return rows


def test_wallclock_headline(benchmark, results_sink):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    table = AsciiTable(
        ["algorithm", "wall time (s)", "[min, max]", "vs FSR", "stripes",
         "chunks", "verifies", "peak mem"],
        title="Wall-clock repair: the daemon over paced disks, real bytes "
              f"(median of {REPETITIONS})",
        float_fmt=".3f",
    )
    for r in rows:
        table.add_row([
            r["algorithm"], r["wall_seconds"],
            f"[{r['wall_min']:.3f}, {r['wall_max']:.3f}]",
            "baseline" if r["algorithm"] == "fsr" else f"{-r['reduction_pct']:+.1f}%",
            r["stripes"], r["chunks_read"], r["certify_verifies"], r["peak_memory"],
        ])
    emit("Wall-clock headline", table.render())
    results_sink("wallclock", rows, meta={
        "repetitions": REPETITIONS, "time_scale": TIME_SCALE, "per_disk_reads": 1,
    })

    stripes = rows[0]["stripes"]
    assert stripes >= 200
    for r in rows:
        assert r["certified"], r["algorithm"]
        assert r["peak_memory"] <= C
        assert r["stripes"] == stripes
        assert r["chunks_read"] == K * stripes
        assert r["certify_verifies"] == stripes
    # HD-PSR-AP is not asserted: it loses here. AP admits stripes in
    # ascending order of their reduced time L_s, so the stripes that touch
    # the four slow disks all come last and queue on those disks'
    # one-read-at-a-time gates. Admitted in stripe order, as FSR, AS and PA
    # are, AP beat FSR in 3 of 3 real-clock runs (ROADMAP.md finding 1,
    # EXPERIMENTS.md).
    by = {r["algorithm"]: r for r in rows}
    assert by["hd-psr-as"]["wall_seconds"] < by["fsr"]["wall_seconds"]
