"""SCRUB — silent-corruption detection latency and foreground politeness.

Repo extension: the online scrub plane (PR: scrubber + bitrot injection +
quarantine-and-read-repair) makes two quantitative promises this chart
pins down:

* **Detection latency tracks the scrub rate.** Corruption seeded beneath
  the checksum layer is invisible until a verify touches it, so the time
  to quarantine is bounded by the cycle time — and the cycle time is set
  by ``interval_ms``, the inter-verify pause. Sweeping the interval shows
  the knob working: an aggressive scrubber finds every rotted chunk in a
  fraction of the time a lazy one needs, and each find ends in a
  byte-identical read-repair either way.

* **Scrub never mugs the foreground.** The scrubber verifies a disk in
  runs, each under one *background* gate slot (on the event loop while
  the page cache answers, else in one worker call): a run lasts until
  the next pause is due (one chunk at ``interval_ms > 0``, the whole disk
  at 0), and ends early at the next chunk boundary once any read queues
  on that disk's gate, and at the first chunk that fails its verify. The
  detection episodes scrub file shards, so they take the event-loop
  path; the foreground episodes scrub paced in-memory disks, whose every
  verify is a worker call. So a diurnal open-loop read workload sees (nearly) the
  same tail latency whether the scrubber is hammering the store at full
  rate or switched off entirely. The politeness assertion compares p99 on
  and off within pairs of episodes run back to back (off, on, off, on):
  the host's noise moves both halves of a pair together, while it moves
  the p99 of one session's episodes against another's by 3x or more.

Latency is measured from the *scheduled* arrival (no coordinated
omission), and the scrub-on episode must also complete at least one full
verify cycle — politeness that comes from not scrubbing would be cheating.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Dict, List

from repro.ec.stripe import ChunkId
from repro.faults import apply_corruption
from repro.faults.spec import FaultEvent
from repro.hdss.store import InMemoryChunkStore, ShardedChunkStore
from repro.obs.metrics import percentiles
from repro.service import chaos_rig as rig
from repro.service.client import pace_open_loop, tally_open_loop
from repro.service.netserver import ServiceDaemon
from repro.service.scrub import ScrubConfig, Scrubber
from repro.service.service import RepairService
from repro.utils.tables import AsciiTable
from repro.workloads.arrivals import diurnal_arrivals

from benchutil import emit

SEED = 23
STRIPES = 10
CORRUPTIONS = 4

#: Inter-verify pause sweep: the scrub-rate knob, fast to lazy.
INTERVAL_SWEEP_MS = [0.0, 2.0, 8.0]

SERVICE_TIME_S = 0.002
GATE_WIDTH = 2
READ_RATE = 120.0
EPISODE_SECONDS = 1.2
DIURNAL_PERIOD_S = 0.6
#: Interleaved off/on foreground episode pairs.
PAIRS = 2
#: The most the scrub may multiply the foreground p99 (median over pairs).
MAX_P99_RATIO = 3.0


def _make_service(root, store=None) -> RepairService:
    if store is None:
        store = ShardedChunkStore.from_root(
            root / "store", num_shards=2, durable=False
        )
    server = rig.build_server(
        store, stripes=STRIPES, seed=SEED, chunk_size=1024
    )
    return rig.build_service(
        server, max_concurrent_stripes=2, per_disk_reads=GATE_WIDTH
    )


def _seed_corruption(service) -> List["tuple[int, ChunkId, bytes]"]:
    """Rot ``CORRUPTIONS`` chunks on distinct disks; returns the victims
    with their pristine payloads."""
    victims = []
    used_disks = set()
    layout = service.server.layout
    for si in range(len(layout)):
        stripe = layout[si]
        for shard in range(stripe.k):
            disk = stripe.disks[shard]
            if disk in used_disks:
                continue
            used_disks.add(disk)
            cid = ChunkId(si, shard)
            pristine = service.server.store.get(disk, cid).tobytes()
            apply_corruption(
                service.server.store,
                FaultEvent(at=0.0, kind="bitrot", disk=disk, stripe=si, shard=shard),
            )
            victims.append((disk, cid, pristine))
            break
        if len(victims) == CORRUPTIONS:
            break
    return victims


def run_detection_episode(tmp_path, interval_ms: float) -> Dict[str, object]:
    """Seed corruption, scrub at one rate, time full detection + repair."""

    async def episode() -> Dict[str, object]:
        service = _make_service(tmp_path / f"det-{interval_ms}")
        victims = _seed_corruption(service)
        scrub = Scrubber(
            service,
            ScrubConfig(interval_ms=interval_ms, cycle_pause_s=0.01,
                        park_poll_s=0.01),
        )
        seeded = time.monotonic()
        scrub.start()
        deadline = seeded + 120.0
        while scrub.corrupt_found < len(victims):
            if time.monotonic() > deadline:
                break
            await asyncio.sleep(0.002)
        detect_all_s = time.monotonic() - seeded
        # let in-flight read-repairs land, then verify byte identity
        while scrub.repaired + scrub.repair_failures < scrub.corrupt_found:
            if time.monotonic() > deadline:
                break
            await asyncio.sleep(0.002)
        await scrub.wait_cycles(1, timeout=60.0)
        await scrub.stop()
        repaired_identical = all(
            service.server.store.get(disk, cid).tobytes() == pristine
            for disk, cid, pristine in victims
        )
        await service.close()
        return {
            "interval_ms": interval_ms,
            "corruptions": len(victims),
            "detected": scrub.corrupt_found,
            "repaired": scrub.repaired,
            "repaired_identical": repaired_identical,
            "detect_all_s": round(detect_all_s, 3),
            "cycle_s": round(scrub.last_cycle_seconds or 0.0, 3),
            "chunks_verified": scrub.chunks_verified,
        }

    return asyncio.run(episode())


def run_foreground_episode(tmp_path, scrub_on: bool) -> Dict[str, object]:
    """Diurnal open-loop reads against the daemon, scrub on vs off."""

    async def episode() -> Dict[str, object]:
        store = ShardedChunkStore(
            [rig.PacedStore(InMemoryChunkStore(), latency_s=SERVICE_TIME_S)
             for _ in range(2)]
        )
        service = _make_service(tmp_path / f"fg-{scrub_on}", store=store)
        scrub = None
        if scrub_on:
            scrub = Scrubber(
                service,
                ScrubConfig(interval_ms=0.0, cycle_pause_s=0.01,
                            park_poll_s=0.01),
            )
        call = rig.in_process(ServiceDaemon(service, scrubber=scrub))
        if scrub is not None:
            scrub.start()

        schedule = diurnal_arrivals(
            READ_RATE, EPISODE_SECONDS, period=DIURNAL_PERIOD_S,
            amplitude=0.6, seed=SEED,
        )

        async def send(ordinal: int):
            return rig.error_code(await call(
                "read", stripe=ordinal % STRIPES, shard=ordinal % 3
            ))

        latencies, by_code = tally_open_loop(
            await pace_open_loop(schedule.times, send)
        )
        errors = sum(by_code.values())
        cycles = 0
        if scrub is not None:
            # politeness must coexist with progress, not replace it
            await scrub.wait_cycles(1, timeout=60.0)
            cycles = scrub.cycles_completed
            await scrub.stop()
        await service.close()

        q = percentiles(latencies)
        return {
            "scrub": scrub_on,
            "offered": schedule.count,
            "completed": len(latencies),
            "errors": errors,
            "p50_ms": round(q.get(0.5, 0.0) * 1e3, 1),
            "p99_ms": round(q.get(0.99, 0.0) * 1e3, 1),
            "scrub_cycles": cycles,
            "chunks_verified": scrub.chunks_verified if scrub else 0,
        }

    return asyncio.run(episode())


def test_scrub_detection_and_politeness(results_sink, tmp_path):
    detection = [
        run_detection_episode(tmp_path, ms) for ms in INTERVAL_SWEEP_MS
    ]
    foreground = []
    for pair in range(PAIRS):
        for scrub_on in (False, True):
            row = run_foreground_episode(tmp_path / f"pair{pair}", scrub_on)
            foreground.append(dict(pair=pair, **row))
    politeness = [
        {
            "pair": pair,
            "off_p99_ms": off["p99_ms"],
            "on_p99_ms": on["p99_ms"],
            "p99_ratio": round(on["p99_ms"] / off["p99_ms"], 2),
        }
        for pair, (off, on) in enumerate(zip(foreground[::2], foreground[1::2]))
    ]

    table = AsciiTable([
        "interval (ms)", "corruptions", "detected", "repaired",
        "detect-all (s)", "cycle (s)", "verified",
    ])
    for r in detection:
        table.add_row([
            r["interval_ms"], r["corruptions"], r["detected"], r["repaired"],
            r["detect_all_s"], r["cycle_s"], r["chunks_verified"],
        ])
    emit("Scrub detection latency vs scrub rate", table.render())

    fg_table = AsciiTable([
        "pair", "scrub", "offered", "completed", "errors", "p50 (ms)",
        "p99 (ms)", "cycles", "verified",
    ])
    for r in foreground:
        fg_table.add_row([
            r["pair"], "on" if r["scrub"] else "off", r["offered"],
            r["completed"], r["errors"], r["p50_ms"], r["p99_ms"],
            r["scrub_cycles"], r["chunks_verified"],
        ])
    emit("Foreground p99 under diurnal arrivals, scrub on vs off",
         fg_table.render())
    pair_table = AsciiTable(["pair", "off p99 (ms)", "on p99 (ms)", "on/off"])
    for r in politeness:
        pair_table.add_row([r["pair"], r["off_p99_ms"], r["on_p99_ms"], r["p99_ratio"]])
    emit("Foreground p99 ratio per interleaved pair", pair_table.render())

    rows = [dict(kind="detection", **r) for r in detection]
    rows += [dict(kind="foreground", **r) for r in foreground]
    rows += [dict(kind="politeness", **r) for r in politeness]
    results_sink("scrub", rows, meta={
        "stripes": STRIPES,
        "corruptions": CORRUPTIONS,
        "interval_sweep_ms": INTERVAL_SWEEP_MS,
        "service_time_s": SERVICE_TIME_S,
        "gate_width": GATE_WIDTH,
        "read_rate_per_s": READ_RATE,
        "episode_seconds": EPISODE_SECONDS,
        "diurnal_period_s": DIURNAL_PERIOD_S,
        "pairs": PAIRS,
        "seed": SEED,
    })

    # Every seeded corruption is detected and repaired byte-identically,
    # at every scrub rate.
    for r in detection:
        assert r["detected"] == r["corruptions"], r
        assert r["repaired"] == r["corruptions"], r
        assert r["repaired_identical"], r
    # The rate knob works: the aggressive scrubber detects everything in
    # less time than the lazy one (endpoints of the sweep).
    assert detection[0]["detect_all_s"] < detection[-1]["detect_all_s"], detection
    assert detection[0]["cycle_s"] < detection[-1]["cycle_s"], detection

    for r in foreground:
        assert r["errors"] == 0, r
        if r["scrub"]:
            assert r["scrub_cycles"] >= 1, r  # politeness with progress
    # Background gate slots keep the foreground tail comparable: within a
    # pair the scrub may not triple the p99.
    ratio = statistics.median(r["p99_ratio"] for r in politeness)
    assert ratio <= MAX_P99_RATIO, politeness
