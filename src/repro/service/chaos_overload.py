"""Flash-crowd chaos: an open-loop stampede against a repairing daemon.

This is the scenario behind ``hdpsr chaos --scenario overload``, and the
proof the overload controller exists to earn. One :class:`ServiceDaemon`
(driven in-process through
:meth:`~repro.service.netserver.ServiceDaemon.handle_request` — full
protocol semantics, no TCP framing, so a thousand-request open-loop flood
doesn't need a thousand sockets) fronts a store whose reads cost a real,
fixed service time. The episode:

1. Fail one disk and submit its repair; repair reads now compete with the
   front door on every surviving spindle.
2. Replay a :func:`~repro.workloads.arrivals.flash_crowd_arrivals`
   schedule against a single hot chunk: a steady base rate, then a
   ``spike_factor`` step that pushes offered load well past the hot
   disk's service capacity, then quiet. Open loop — arrivals fire at
   their scheduled instants regardless of completions, and latency is
   measured from the *scheduled* arrival (no coordinated omission).
3. With the controller enabled (``control=True``), assert the contract:
   the daemon enters brownout/shedding during the spike, sheds at least
   one request with a ``retry_after_ms`` hint on the wire, keeps
   successful-read p99 under ``p99_budget``, keeps spike goodput at
   ``goodput_floor`` of the pre-spike level, finishes the repair with
   every object byte-identical, and returns to ``healthy``.
4. With the controller disabled (``control=False``, the negative
   control), the same schedule must *violate* the p99 budget — the
   standing queue the controller would have refused instead grows for
   the whole spike — which is what proves the bounded tail above is the
   controller's doing and not a gift of the workload.

Determinism: the arrival schedule and read targets are seeded, the
service time is fixed, and every assertion carries wide margins over the
queueing-theory expectation, so the episode replays stably under CI
jitter.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core import ALGORITHMS
from repro.ec.stripe import ChunkId
from repro.errors import ConfigurationError
from repro.hdss.server import HDSSConfig, HighDensityStorageServer
from repro.hdss.store import ChunkStore, InMemoryChunkStore
from repro.obs.context import current_registry
from repro.obs.quantiles import QuantileSketch
from repro.service.netserver import ServiceDaemon
from repro.service.overload import (
    STATE_HEALTHY,
    _STATE_LEVEL,
    OverloadConfig,
)
from repro.service.protocol import ERR_DEADLINE, ERR_OVERLOAD
from repro.service.service import RepairService, ServiceConfig
from repro.workloads.arrivals import flash_crowd_arrivals

__all__ = ["OverloadChaosConfig", "OverloadChaosScenario", "run_overload_chaos"]


class SlowStore(ChunkStore):
    """Delegating store whose reads cost a fixed wall-clock service time.

    The disk-physics stand-in the scenario queues against: each ``get``
    sleeps ``service_time_s`` (inside the caller's ``to_thread``), so a
    gate of width ``w`` gives each disk a real capacity of
    ``w / service_time_s`` reads per second — and offered load beyond it
    builds a real standing queue with real waits for the controller to
    measure.
    """

    def __init__(self, inner: ChunkStore, service_time_s: float) -> None:
        self.inner = inner
        self.service_time_s = service_time_s
        self.reads = 0

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        self.reads += 1
        time.sleep(self.service_time_s)
        return self.inner.get(disk_id, chunk_id)

    # ------------------------------------------------------------ delegation
    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        self.inner.put(disk_id, chunk_id, data)

    def put_many(self, items) -> None:
        self.inner.put_many(items)

    def get_many(self, keys):
        return [self.get(d, c) for d, c in keys]

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        self.inner.delete(disk_id, chunk_id)

    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.inner.contains(disk_id, chunk_id)

    def is_readable(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.inner.is_readable(disk_id, chunk_id)

    # verify_chunk is the base default on purpose: a verify is a read
    # through :meth:`get`, so it pays the service time like any other.

    def chunks_on_disk(self, disk_id: int) -> List[ChunkId]:
        return self.inner.chunks_on_disk(disk_id)

    def drop_disk(self, disk_id: int) -> int:
        return self.inner.drop_disk(disk_id)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


@dataclass(frozen=True)
class OverloadChaosConfig:
    """Knobs of one flash-crowd episode.

    The defaults put the hot disk's capacity at ``1 / service_time_s``
    = 500 reads/s (gate width 1): the base rate loads it to ~16%, the
    spike offers ~3.2× capacity, so without control the standing queue
    grows for the whole spike and the tail explodes — while with control
    the deadline + shed path keeps waits near ``deadline_ms``.

    Attributes:
        control: run with the overload controller + client deadlines
            (the treatment) or with neither (the negative control).
        root: optional scratch dir for the repair journal (None = no
            journal; the scenario's byte-identity check doesn't need one).
        p99_budget: wall bound asserted on successful-read p99 (treatment)
            and asserted *violated* without control.
        goodput_floor: spike goodput must stay at this fraction of the
            pre-spike goodput (treatment only).
    """

    control: bool = True
    root: "str | Path | None" = None
    num_disks: int = 12
    n: int = 5
    k: int = 3
    chunk_size: int = 2048
    memory_chunks: int = 16
    spares: int = 3
    seed: int = 11
    stripes: int = 12
    failed_disk: int = 3
    algorithm: str = "hd-psr-ap"
    service_time_s: float = 0.002
    gate_width: int = 1
    base_rate: float = 80.0
    spike_factor: float = 10.0
    pre_seconds: float = 1.0
    spike_seconds: float = 1.0
    post_seconds: float = 0.5
    deadline_ms: float = 100.0
    p99_budget: float = 0.3
    goodput_floor: float = 0.8
    overload: Optional[OverloadConfig] = None
    deadline: float = 60.0

    def __post_init__(self) -> None:
        if self.service_time_s <= 0:
            raise ConfigurationError(
                f"service_time_s must be > 0, got {self.service_time_s}"
            )
        if not 0 < self.goodput_floor <= 1:
            raise ConfigurationError(
                f"goodput_floor must be in (0, 1], got {self.goodput_floor}"
            )
        if self.p99_budget <= 0:
            raise ConfigurationError(
                f"p99_budget must be > 0, got {self.p99_budget}"
            )


class OverloadChaosScenario:
    """One seeded flash-crowd episode; :meth:`run` returns the report."""

    def __init__(self, config: OverloadChaosConfig) -> None:
        self.config = config
        self.failures: List[str] = []

    def _fail(self, message: str) -> None:
        self.failures.append(message)

    # ------------------------------------------------------------- assembly
    def _build(self):
        c = self.config
        store = SlowStore(InMemoryChunkStore(), c.service_time_s)
        server = HighDensityStorageServer(
            HDSSConfig(
                num_disks=c.num_disks, n=c.n, k=c.k, chunk_size=c.chunk_size,
                memory_chunks=c.memory_chunks, spares=c.spares, seed=c.seed,
                placement="rotating",
            ),
            store=store,
        )
        server.provision_stripes(c.stripes, with_data=True)
        overload = None
        if c.control:
            overload = c.overload or OverloadConfig(
                # Interval well under the spike so brownout is detected
                # within it; targets sized to the 2 ms service time.
                target_ms=5.0, shed_target_ms=30.0, interval_ms=50.0,
                recovery_intervals=2, repair_pace_ms=10.0,
                queue_cap=48, idle_reset_s=1.0,
            )
        service = RepairService(
            server,
            ALGORITHMS[c.algorithm](),
            ServiceConfig(
                max_concurrent_stripes=2,
                per_disk_reads=c.gate_width,
                journal_root=(
                    Path(c.root) / "journal" if c.root is not None else None
                ),
                durable_journal=False,
                overload=overload,
            ),
        )
        daemon = ServiceDaemon(service)
        return store, server, service, daemon

    def _hot_target(self, server: HighDensityStorageServer) -> "tuple[int, int]":
        """A (stripe, shard) whose disk survives the failure — every flood
        read lands here, concentrating the stampede on one spindle."""
        c = self.config
        for si in range(len(server.layout)):
            stripe = server.layout[si]
            for shard in range(stripe.k):
                if stripe.disks[shard] != c.failed_disk:
                    return si, shard
        raise ConfigurationError("no surviving shard to target")

    # ------------------------------------------------------------------ run
    async def run(self) -> dict:
        c = self.config
        hard_deadline = time.monotonic() + c.deadline
        store, server, service, daemon = self._build()
        originals = {
            si: server.read_object(si) for si in range(len(server.layout))
        }
        hot_stripe, hot_shard = self._hot_target(server)
        hot_disk = server.layout[hot_stripe].disks[hot_shard]
        duration = c.pre_seconds + c.spike_seconds + c.post_seconds
        schedule = flash_crowd_arrivals(
            c.base_rate, duration,
            spike_factor=c.spike_factor,
            spike_start=c.pre_seconds,
            spike_duration=c.spike_seconds,
            seed=c.seed,
        )

        report: dict = {
            "control": c.control,
            "seed": c.seed,
            "hot_target": [hot_stripe, hot_shard],
            "hot_disk": hot_disk,
            "offered": schedule.count,
            "offered_rate": round(schedule.mean_rate, 3),
            "hot_capacity_per_s": round(c.gate_width / c.service_time_s, 1),
            "shape": schedule.params,
        }

        # 1. Fail the disk and start its repair under the daemon.
        reply = await daemon.handle_request({"op": "fail_disk", "disk": c.failed_disk})
        if not reply.get("ok"):
            self._fail(f"fail_disk refused: {reply}")
        reply = await daemon.handle_request({"op": "repair", "disk": c.failed_disk})
        job_id = reply.get("job_id")
        if not reply.get("ok"):
            self._fail(f"repair refused: {reply}")

        # 2. The open-loop flood, plus a state sampler watching brownout.
        latencies = QuantileSketch((0.5, 0.9, 0.99))
        errors: Dict[str, int] = {}
        shed_example: Optional[dict] = None
        completed_at: List[float] = []  # scheduled offsets of successes
        max_level = 0
        states_seen = {STATE_HEALTHY}

        async def sample_states(stop: asyncio.Event) -> None:
            nonlocal max_level
            while not stop.is_set():
                if service.overload is not None:
                    state = service.overload.state
                    states_seen.add(state)
                    max_level = max(max_level, _STATE_LEVEL[state])
                await asyncio.sleep(0.01)

        async def fire(offset: float) -> None:
            nonlocal shed_example
            msg = {"op": "read", "stripe": hot_stripe, "shard": hot_shard}
            if c.control:
                msg["deadline_ms"] = c.deadline_ms
            t0 = time.monotonic()
            reply = await daemon.handle_request(msg)
            if reply.get("ok"):
                latencies.observe(time.monotonic() - t0)
                completed_at.append(offset)
            else:
                code = str(reply.get("code", "unknown"))
                errors[code] = errors.get(code, 0) + 1
                if code == ERR_OVERLOAD and "retry_after_ms" in reply:
                    shed_example = shed_example or dict(reply)

        stop_sampler = asyncio.Event()
        sampler = asyncio.create_task(sample_states(stop_sampler))
        started = time.monotonic()
        tasks: List[asyncio.Task] = []
        for offset in schedule.times:
            delay = started + float(offset) - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(fire(float(offset))))
        await asyncio.gather(*tasks)

        # 3. Repair must finish (possibly stalled behind foreground
        # priority during the spike) and certify clean.
        repair_summary: dict = {}
        if job_id is not None:
            budget = max(1.0, hard_deadline - time.monotonic())
            try:
                reply = await asyncio.wait_for(
                    daemon.handle_request({"op": "wait", "job_id": job_id}),
                    timeout=budget,
                )
            except asyncio.TimeoutError:
                self._fail(f"repair did not finish within {budget:.0f}s")
            else:
                repair_summary = {
                    k: v for k, v in reply.items() if k not in ("ok", "trace_id")
                }
                if not reply.get("certified", False):
                    self._fail("repair did not certify clean under the flood")
        stop_sampler.set()
        await sampler
        await service.close()

        # ------------------------------------------------------- the ledger
        q = latencies.quantiles() if latencies.count else {}
        p99 = q.get(0.99)
        pre = [t for t in completed_at if t < c.pre_seconds]
        spike = [
            t for t in completed_at
            if c.pre_seconds <= t < c.pre_seconds + c.spike_seconds
        ]
        goodput_pre = len(pre) / c.pre_seconds
        goodput_spike = len(spike) / c.spike_seconds
        snapshot = (
            service.overload.snapshot() if service.overload is not None else {}
        )
        report.update({
            "completed": latencies.count,
            "errors": dict(errors),
            "sheds": errors.get(ERR_OVERLOAD, 0),
            "deadline_expired": errors.get(ERR_DEADLINE, 0),
            "read_p50_seconds": q.get(0.5),
            "read_p99_seconds": p99,
            "p99_budget": c.p99_budget,
            "p99_violated": bool(p99 is not None and p99 > c.p99_budget),
            "goodput_pre_per_s": round(goodput_pre, 1),
            "goodput_spike_per_s": round(goodput_spike, 1),
            "states_seen": sorted(states_seen, key=_STATE_LEVEL.get),
            "max_state_level": max_level,
            "shed_example": shed_example,
            "overload": snapshot,
            "repair": repair_summary,
        })

        # 4. Byte identity: every object — including the repaired disk's
        # rebuilt chunks on their spares — reads back exactly as written.
        mismatched = []
        for si, want in originals.items():
            try:
                got = server.read_object(si)
            except Exception as exc:  # noqa: BLE001 - recorded as mismatch
                mismatched.append((si, repr(exc)))
                continue
            if got != want:
                mismatched.append((si, "bytes differ"))
        report["byte_identical"] = not mismatched
        if mismatched:
            self._fail(f"objects not byte-identical after repair: {mismatched}")

        if c.control:
            self._assert_treatment(report, service, hard_deadline)
        # The negative control asserts nothing about its own tail here:
        # the *caller* (test/CI) asserts report["p99_violated"] is True,
        # keeping this run's pass/fail about integrity only.

        report["failures"] = list(self.failures)
        report["passed"] = not self.failures
        current_registry().counter(
            "hdpsr_chaos_runs_total", "Chaos scenarios executed.",
        ).labels(outcome="pass" if report["passed"] else "fail").inc()
        return report

    def _assert_treatment(
        self, report: dict, service: RepairService, hard_deadline: float
    ) -> None:
        """The overload-control contract, asserted with control enabled."""
        c = self.config
        if report["max_state_level"] < 1:
            self._fail(
                "daemon never left healthy under a "
                f"{c.spike_factor}x flash crowd"
            )
        total_sheds = report["sheds"] + report["deadline_expired"]
        if not total_sheds:
            self._fail("controller shed nothing during the spike")
        if report["sheds"] and not report["shed_example"]:
            self._fail("overload refusals carried no retry_after_ms hint")
        p99 = report["read_p99_seconds"]
        if p99 is None:
            self._fail("no successful reads to measure p99 on")
        elif p99 > c.p99_budget:
            self._fail(
                f"p99 {p99:.3f}s exceeded the {c.p99_budget}s budget "
                "with control enabled"
            )
        floor = c.goodput_floor * report["goodput_pre_per_s"]
        if report["goodput_spike_per_s"] < floor:
            self._fail(
                f"spike goodput {report['goodput_spike_per_s']}/s fell below "
                f"{c.goodput_floor:.0%} of pre-spike "
                f"({report['goodput_pre_per_s']}/s)"
            )
        # Clean recovery: with the flood gone, windows go clean (or idle-
        # expire) and the daemon must walk back to healthy.
        budget = max(1.0, hard_deadline - time.monotonic())
        waited = 0.0
        while service.overload.state != STATE_HEALTHY and waited < budget:
            time.sleep(0.05)
            waited += 0.05
        report["recovered_healthy"] = service.overload.state == STATE_HEALTHY
        report["recovery_wait_seconds"] = round(waited, 2)
        if not report["recovered_healthy"]:
            self._fail(f"daemon stuck in {service.overload.state} after the flood")


def run_overload_chaos(config: OverloadChaosConfig) -> dict:
    """Synchronous front door for the CLI/CI: run one flash-crowd episode."""
    return asyncio.run(OverloadChaosScenario(config).run())
