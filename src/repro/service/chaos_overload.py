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
   :data:`SPIKE_FACTOR` step that pushes offered load well past the hot
   disk's service capacity, then quiet. Open loop — the shared pacer
   (:func:`~repro.service.client.pace_open_loop`) fires arrivals at
   their scheduled instants regardless of completions, and times each
   read from its *scheduled* arrival (no coordinated omission).
3. With the controller enabled (``control=True``), assert the contract:
   the daemon enters brownout/shedding during the spike, sheds at least
   one request with a ``retry_after_ms`` hint on the wire, keeps
   successful-read p99 under ``p99_budget``, keeps spike goodput at
   :data:`GOODPUT_FLOOR` of the pre-spike level, finishes the repair with
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
from typing import Optional

from repro.errors import ConfigurationError
from repro.hdss.server import HighDensityStorageServer
from repro.hdss.store import InMemoryChunkStore
from repro.obs.metrics import percentiles
from repro.service import chaos_rig as rig
from repro.service.client import pace_open_loop, tally_open_loop
from repro.service.netserver import ServiceDaemon
from repro.service.overload import STATE_HEALTHY, STATES, OverloadConfig
from repro.service.protocol import ERR_DEADLINE, ERR_OVERLOAD
from repro.workloads.arrivals import flash_crowd_arrivals

__all__ = ["OverloadChaosConfig", "OverloadChaosScenario", "run_overload_chaos"]

#: Wall seconds one store read costs: with the width-1 gate below, the hot
#: disk's capacity is ``GATE_WIDTH / SERVICE_TIME_S`` = 500 reads/s.
SERVICE_TIME_S = 0.002
GATE_WIDTH = 1
#: The spike offers this multiple of the base rate — ~3.2x the hot disk's
#: capacity at the default 80/s base — so without control the standing
#: queue grows for the whole spike and the tail explodes.
SPIKE_FACTOR = 10.0
#: Spike goodput must stay at this fraction of the pre-spike goodput
#: (treatment only): shedding trims the queue, not the throughput.
GOODPUT_FLOOR = 0.8
#: The controller under test. Interval well under the spike so brownout
#: is detected within it; targets sized to the 2 ms service time.
OVERLOAD = OverloadConfig(
    target_ms=5.0, shed_target_ms=30.0, interval_ms=50.0,
    recovery_intervals=2, repair_pace_ms=10.0,
    queue_cap=48, idle_reset_s=1.0,
)


@dataclass(frozen=True)
class OverloadChaosConfig:
    """Knobs of one flash-crowd episode.

    With the defaults the base rate loads the hot disk to ~16% of its
    500 reads/s, and the spike offers ~3.2× capacity — while with control
    the deadline + shed path keeps waits near ``deadline_ms``.

    Attributes:
        control: run with the overload controller + client deadlines
            (the treatment) or with neither (the negative control).
        root: optional scratch dir for the repair journal (None = no
            journal; the scenario's byte-identity check doesn't need one).
        base_rate / pre_seconds / spike_seconds / post_seconds: the
            flash-crowd schedule — reads/s before and after the spike and
            the length of each phase.
        deadline_ms: per-read budget the treatment's client sends.
        p99_budget: wall bound asserted on successful-read p99 (treatment)
            and asserted *violated* without control.
        deadline: wall seconds the whole episode may take.
    """

    control: bool = True
    root: "str | Path | None" = None
    seed: int = 11
    stripes: int = 12
    failed_disk: int = 3
    base_rate: float = 80.0
    pre_seconds: float = 1.0
    spike_seconds: float = 1.0
    post_seconds: float = 0.5
    deadline_ms: float = 100.0
    p99_budget: float = 0.3
    deadline: float = 60.0

    def __post_init__(self) -> None:
        if self.p99_budget <= 0:
            raise ConfigurationError(
                f"p99_budget must be > 0, got {self.p99_budget}"
            )


class OverloadChaosScenario(rig.Episode):
    """One seeded flash-crowd episode; :meth:`run` returns the report."""

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
        server = rig.build_server(
            rig.PacedStore(InMemoryChunkStore(), latency_s=SERVICE_TIME_S),
            stripes=c.stripes, seed=c.seed,
        )
        service = rig.build_service(
            server,
            max_concurrent_stripes=2,
            per_disk_reads=GATE_WIDTH,
            journal_root=Path(c.root) / "journal" if c.root is not None else None,
            overload=OVERLOAD if c.control else None,
        )
        call = rig.in_process(ServiceDaemon(service))
        originals = rig.originals_of(server)
        repaired = server.layout.stripe_set(c.failed_disk)
        hot_stripe, hot_shard = self._hot_target(server)
        schedule = flash_crowd_arrivals(
            c.base_rate, c.pre_seconds + c.spike_seconds + c.post_seconds,
            spike_factor=SPIKE_FACTOR,
            spike_start=c.pre_seconds,
            spike_duration=c.spike_seconds,
            seed=c.seed,
        )

        report: dict = {
            "control": c.control,
            "seed": c.seed,
            "hot_target": [hot_stripe, hot_shard],
            "hot_disk": server.layout[hot_stripe].disks[hot_shard],
            "offered": schedule.count,
            "offered_rate": round(schedule.mean_rate, 3),
            "hot_capacity_per_s": round(GATE_WIDTH / SERVICE_TIME_S, 1),
            "shape": schedule.params,
        }

        # 1. Fail the disk and start its repair under the daemon.
        job_id = await self.start_repair(call, c.failed_disk)

        # 2. The open-loop flood; each arrival also notes the brownout state.
        shed_example: Optional[dict] = None
        states_seen = {STATE_HEALTHY}
        read = {"stripe": hot_stripe, "shard": hot_shard}
        if c.control:
            read["deadline_ms"] = c.deadline_ms

        async def send(_: int) -> Optional[str]:
            nonlocal shed_example
            if service.overload is not None:
                states_seen.add(service.overload.state)
            reply = await call("read", **read)
            code = rig.error_code(reply)
            if code == ERR_OVERLOAD and "retry_after_ms" in reply:
                shed_example = shed_example or dict(reply)
            return code

        outcomes = await pace_open_loop(schedule.times, send)

        # 3. Repair must finish (possibly stalled behind foreground
        # priority during the spike) and certify clean.
        repair_summary = await self.wait_certified(
            call, job_id, "repair under the flood"
        )
        await service.close()

        # ------------------------------------------------------- the ledger
        latencies, errors = tally_open_loop(outcomes)
        q = percentiles(latencies)
        p99 = q.get(0.99)
        # Goodput by *scheduled* offset: which phase's arrivals completed.
        completed_at = [t for t, r in outcomes if not isinstance(r, str)]
        spike_end = c.pre_seconds + c.spike_seconds
        pre = sum(t < c.pre_seconds for t in completed_at)
        spike = sum(c.pre_seconds <= t < spike_end for t in completed_at)
        report.update({
            "completed": len(latencies),
            "errors": errors,
            "sheds": errors.get(ERR_OVERLOAD, 0),
            "deadline_expired": errors.get(ERR_DEADLINE, 0),
            "read_p50_seconds": q.get(0.5),
            "read_p99_seconds": p99,
            "p99_budget": c.p99_budget,
            "p99_violated": bool(p99 is not None and p99 > c.p99_budget),
            "goodput_pre_per_s": round(pre / c.pre_seconds, 1),
            "goodput_spike_per_s": round(spike / c.spike_seconds, 1),
            "states_seen": sorted(states_seen, key=STATES.index),
            "max_state_level": max(STATES.index(s) for s in states_seen),
            "shed_example": shed_example,
            "overload": (
                service.overload.snapshot() if service.overload is not None else {}
            ),
            "repair": repair_summary,
        })

        # 4. Byte identity: every object — including the repaired disk's
        # rebuilt chunks on their spares — reads back exactly as written.
        report["byte_identical"] = self.check(
            await rig.check_byte_identical(server.read_object, originals)
        )
        report["parity_clean"] = self.check(rig.check_parity_clean(server, repaired))
        self.check_memory(report, service)

        if c.control:
            await self._assert_treatment(report, service)
        # The negative control asserts nothing about its own tail here:
        # the *caller* (test/CI) asserts report["p99_violated"] is True,
        # keeping this run's pass/fail about integrity only.
        return self.finish(report)

    async def _assert_treatment(self, report: dict, service) -> None:
        """The overload-control contract, asserted with control enabled."""
        c = self.config
        if report["max_state_level"] < 1:
            self.fail(
                f"daemon never left healthy under a {SPIKE_FACTOR}x flash crowd"
            )
        total_sheds = report["sheds"] + report["deadline_expired"]
        if not total_sheds:
            self.fail("controller shed nothing during the spike")
        if report["sheds"] and not report["shed_example"]:
            self.fail("overload refusals carried no retry_after_ms hint")
        p99 = report["read_p99_seconds"]
        if p99 is None:
            self.fail("no successful reads to measure p99 on")
        elif p99 > c.p99_budget:
            self.fail(
                f"p99 {p99:.3f}s exceeded the {c.p99_budget}s budget "
                "with control enabled"
            )
        floor = GOODPUT_FLOOR * report["goodput_pre_per_s"]
        if report["goodput_spike_per_s"] < floor:
            self.fail(
                f"spike goodput {report['goodput_spike_per_s']}/s fell below "
                f"{GOODPUT_FLOOR:.0%} of pre-spike "
                f"({report['goodput_pre_per_s']}/s)"
            )
        # Clean recovery: with the flood gone, windows go clean (or idle-
        # expire) and the daemon must walk back to healthy.
        waiting_since = time.monotonic()
        report["recovered_healthy"] = await self.await_until(
            lambda: service.overload.state == STATE_HEALTHY,
            "the daemon to walk back to healthy after the flood",
        )
        report["recovery_wait_seconds"] = round(
            time.monotonic() - waiting_since, 2
        )


def run_overload_chaos(config: OverloadChaosConfig) -> dict:
    """Synchronous front door for the CLI/CI: run one flash-crowd episode."""
    return asyncio.run(OverloadChaosScenario(config).run())
