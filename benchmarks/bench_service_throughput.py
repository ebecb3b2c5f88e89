"""SERVICE — aggregate repair throughput of the asyncio repair service.

Repo extension: the paper's repair pipeline recovers one disk at a time.
:class:`~repro.service.service.RepairService` multiplexes stripe repairs
from many concurrent disk failures over per-disk modeled channels, so
jobs whose stripes live on disjoint disks overlap almost perfectly.

This bench fails four disks with pairwise-disjoint stripe sets (rotating
placement, 36 disks, n=9: disks 0/9/18/27) and compares

* **serial**: four independent single-disk repairs, one per fresh
  same-seed server — the executor's one-repair-at-a-time reality; cost is
  the *sum* of the four modeled makespans;
* **service**: one server, all four disks failed, four concurrent
  ``submit_repair`` jobs; cost is the service's modeled makespan.

While the concurrent repairs run, a foreground reader hammers
``read_chunk`` (healthy and lost chunks alike) and reports wall-clock
p50/p99 — the user-visible latency the front door protects. Expected:
near-linear overlap (speedup ≳ 2 is asserted; disjoint channels give
close to 4).
"""

from __future__ import annotations

import asyncio
import time

from repro.core import ALGORITHMS
from repro.hdss.server import HDSSConfig, HighDensityStorageServer
from repro.obs.context import current_registry
from repro.obs.quantiles import QuantileSketch
from repro.service import RepairService, ServiceConfig
from repro.service.service import DEGRADED_READS
from repro.utils.tables import AsciiTable
from repro.utils.rng import make_rng

from benchutil import emit

NUM_DISKS, N, K = 36, 9, 6
STRIPES = 36
FAILED = (0, 9, 18, 27)
ALGORITHM = "hd-psr-ap"
SEED = 17
FOREGROUND_READS = 64


def make_server(scale: int) -> HighDensityStorageServer:
    config = HDSSConfig(
        num_disks=NUM_DISKS, n=N, k=K,
        chunk_size=max(4096, 262144 // scale),
        memory_chunks=24, spares=6, seed=SEED, placement="rotating",
    )
    server = HighDensityStorageServer(config)
    server.provision_stripes(STRIPES, with_data=True)
    return server


def repair_serial(scale: int) -> dict:
    """Four single-disk repairs on fresh same-seed servers, summed."""
    total = 0.0
    for disk in FAILED:
        server = make_server(scale)
        server.fail_disk(disk)

        async def run() -> float:
            service = RepairService(server, ALGORITHMS[ALGORITHM]())
            result = await service.submit_repair(disk).wait()
            await service.close()
            assert result.certified
            return result.modeled_seconds

        total += asyncio.run(run())
    return {"mode": "serial", "modeled_seconds": total}


def repair_concurrent(scale: int) -> dict:
    """One service, four concurrent repairs, foreground reads in flight."""
    server = make_server(scale)
    stripe_sets = [set(server.layout.stripe_set(d)) for d in FAILED]
    for a in range(len(FAILED)):
        for b in range(a + 1, len(FAILED)):
            assert not stripe_sets[a] & stripe_sets[b], "stripe sets overlap"
    for disk in FAILED:
        server.fail_disk(disk)
    latencies = QuantileSketch((0.5, 0.9, 0.99))

    async def run() -> dict:
        service = RepairService(
            server, ALGORITHMS[ALGORITHM](),
            ServiceConfig(max_concurrent_stripes=4 * len(FAILED)),
        )
        tickets = [service.submit_repair(d) for d in FAILED]
        repairs = asyncio.gather(*(t.wait() for t in tickets))

        async def reader() -> None:
            rng = make_rng(SEED + 1)
            targets = [
                (int(rng.integers(STRIPES)), int(rng.integers(N)))
                for _ in range(FOREGROUND_READS)
            ]
            for stripe, shard in targets:
                started = time.monotonic()
                await service.read_chunk(stripe, shard)
                latencies.observe(time.monotonic() - started)

        _, results = await asyncio.gather(reader(), repairs)
        makespan = service.modeled_now
        await service.close()
        assert all(r.certified for r in results)
        return {
            "mode": "service",
            "modeled_seconds": makespan,
            "jobs": [r.modeled_seconds for r in results],
        }

    row = asyncio.run(run())
    degraded = current_registry().get(DEGRADED_READS)
    row.update({
        "read_p50_ms": latencies.quantile(0.5) * 1e3,
        "read_p99_ms": latencies.quantile(0.99) * 1e3,
        "foreground_reads": latencies.count,
        "degraded_reads": int(degraded.value) if degraded is not None else 0,
    })
    return row


def run_modes(scale: int):
    serial = repair_serial(scale)
    service = repair_concurrent(scale)
    speedup = serial["modeled_seconds"] / service["modeled_seconds"]
    service["speedup"] = speedup
    return [serial, service]


def test_service_concurrent_repair_throughput(benchmark, results_sink, scale):
    rows = benchmark.pedantic(run_modes, args=(scale,), rounds=1, iterations=1)
    serial, service = rows
    table = AsciiTable(
        ["mode", "modeled (s)", "speedup", "fg reads", "p50 (ms)", "p99 (ms)"],
        title=f"Service repair throughput ({len(FAILED)} disks, "
              f"{STRIPES} stripes, {ALGORITHM})",
        float_fmt=".4g",
    )
    table.add_row(["serial", serial["modeled_seconds"], 1.0, "-", "-", "-"])
    table.add_row([
        "service", service["modeled_seconds"], service["speedup"],
        service["foreground_reads"], service["read_p50_ms"],
        service["read_p99_ms"],
    ])
    emit("Service repair throughput", table.render())
    results_sink(
        "service_throughput", rows,
        meta={"disks": list(FAILED), "stripes": STRIPES,
              "algorithm": ALGORITHM, "scale": scale},
    )

    # The whole point of the service: concurrent disjoint repairs overlap.
    assert service["speedup"] >= 2.0
    assert service["foreground_reads"] == FOREGROUND_READS
    assert service["read_p99_ms"] >= service["read_p50_ms"]
