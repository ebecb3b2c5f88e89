"""Deterministic two-daemon chaos harness: kill an owner mid-repair.

This is the scenario behind ``hdpsr chaos``. Two :class:`ServiceDaemon`\\ s
share one file-backed :class:`~repro.hdss.store.ShardedChunkStore`, one
journal root, and one lease directory — the full cluster stack of
:mod:`repro.service.cluster` — inside a single process, so the run is
seeded end to end and every assertion is checkable in memory afterwards:

1. Daemon ``a`` claims every shard (first comer), a client fails a disk
   and submits its repair to ``a`` while hammering hedged foreground
   reads through :class:`~repro.service.client.ClusterClient`.
2. A scripted ``daemon_crash`` (rewritten to ``process_crash`` on ``a``'s
   read clock by :meth:`~repro.faults.spec.FaultSchedule.for_daemon`)
   kills ``a`` mid-repair: the crash ends its repair job (every stripe
   task is cancelled; a put already in its worker thread may still land,
   its ``stripe_done`` record already appended) and ``a``'s leases are
   left un-released, exactly as a real SIGKILL leaves them.
3. Daemon ``b``'s failure detector notices the missed heartbeats, claims
   the expired leases with a bumped epoch, and — via the daemon's journal
   handoff — resumes ``a``'s repair after its last finished stripe.
4. The report then proves the invariants the cluster design promises:
   every object is byte-identical to its pre-failure contents, every
   rebuilt chunk's digest verifies, **no chunk was persisted
   twice** (a :class:`~repro.service.chaos_rig.CountingStore` wraps the
   shared store), foreground
   p99 stayed bounded through the takeover, and the revived stale owner
   is fenced at the commit point (its held epoch lost to ``b``'s).

Determinism: the crash is placed on the serial repair read clock, so it
fires at the same read every run for a given seed; wall-clock
jitter moves only the takeover latency, never which writes happened.
The shared store counts writes rather than forbidding overlap because a
put already handed to a store thread at crash time may still land — the
same race a real crash has with the page cache — and the journal
protocol's answer (the record goes before the put, so a landed chunk is
replayed, never re-derived; a recorded chunk that never landed is
re-derived) is exactly what the duplicate counter validates.

The server assembly, the repair steps, the invariant checks and the
report epilogue are the shared :mod:`~repro.service.chaos_rig`; this
module is the episode: who dies, when, and what the survivor must prove.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.faults.report import EXIT_CRASHED
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.hdss.server import HighDensityStorageServer, attach_server
from repro.hdss.store import ShardedChunkStore
from repro.obs.metrics import percentiles
from repro.service import chaos_rig as rig
from repro.service.client import BackoffPolicy, ClusterClient, ServiceClient
from repro.service.cluster import ClusterConfig, ClusterNode
from repro.service.netserver import ServiceDaemon

__all__ = ["ChaosConfig", "ChaosScenario", "run_chaos"]

#: Shards of the shared store and of the lease directory.
NUM_SHARDS = 4
#: Seconds a client read waits on one daemon before hedging to the other —
#: far under the lease TTL, which is why the dead daemon never shapes p99.
HEDGE_AFTER = 0.05


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos run (defaults match the tier-1 test geometry).

    Attributes:
        root: scratch directory (store/journal/cluster live under it).
        crash_at: read-clock second at which daemon ``a`` dies. One repair
            read costs 2 KiB / 180 MB/s ≈ 1.14e-5 s and each of the failed
            disk's stripes is one round of three reads, so the default —
            6.5 reads — fires at the third stripe's second read: two
            stripes journaled, one in flight.
        failed_disk: disk the client fails and repairs (on daemon ``a``).
        lease_ttl / heartbeat_interval: failure-detector timing; the TTL
            bounds the takeover latency the report measures.
        p99_budget: wall-clock bound asserted on foreground read p99 —
            generous against CI jitter while still catching a client that
            waits out a dead daemon instead of hedging.
        deadline: wall seconds the whole episode may take.
    """

    root: Path
    seed: int = 11
    stripes: int = 12
    failed_disk: int = 3
    crash_at: float = 7.4e-5
    lease_ttl: float = 0.6
    heartbeat_interval: float = 0.15
    p99_budget: float = 2.0
    deadline: float = 60.0

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {self.deadline}")
        if self.p99_budget <= 0:
            raise ConfigurationError(
                f"p99_budget must be > 0, got {self.p99_budget}"
            )


class ChaosScenario(rig.Episode):
    """One seeded kill-the-owner run; :meth:`run` returns the report."""

    # ------------------------------------------------------------- assembly
    def _build_daemon(
        self, name: str, server: HighDensityStorageServer,
        faults: Optional[FaultSchedule] = None,
    ) -> ServiceDaemon:
        c = self.config
        service = rig.build_service(
            server,
            # One stripe in flight at a time: the crash then cleanly
            # separates journaled stripes from the one mid-decode, so
            # the no-duplicate-write assertion is deterministic.
            max_concurrent_stripes=1,
            journal_root=Path(c.root) / "journal",
            faults=faults,
        )
        cluster = ClusterNode(ClusterConfig(
            root=Path(c.root) / "cluster",
            node_id=name,
            num_shards=NUM_SHARDS,
            lease_ttl=c.lease_ttl,
            heartbeat_interval=c.heartbeat_interval,
            durable=False,
        ))
        return ServiceDaemon(service, port=0, cluster=cluster)

    async def _foreground(
        self, client: ClusterClient, server: HighDensityStorageServer,
        stop: asyncio.Event, latencies: List[float],
    ) -> Dict[str, int]:
        """Hammer hedged reads until told to stop; records wall latency."""
        rng = random.Random(self.config.seed)
        stripes = len(server.layout)
        reads = errors = 0
        while not stop.is_set():
            stripe = rng.randrange(stripes)
            shard = rng.randrange(server.layout[stripe].k)
            t0 = time.monotonic()
            try:
                await client.read_chunk(stripe, shard)
                latencies.append(time.monotonic() - t0)
                reads += 1
            except Exception:  # noqa: BLE001 - tallied, asserted via p99/count
                errors += 1
                await asyncio.sleep(0.01)
        return {"reads": reads, "errors": errors}

    # ------------------------------------------------------------------ run
    async def run(self) -> dict:
        """Execute the scenario; returns a JSON-able report with ``passed``."""
        c = self.config
        root = Path(c.root)
        # ``daemon_crash`` on daemon 0 becomes a ``process_crash`` on a's
        # read clock; b's share of the schedule is empty.
        crash_a, _ = FaultSchedule(
            [FaultEvent(at=c.crash_at, kind="daemon_crash", daemon=0)]
        ).for_daemon(0)

        shared = rig.CountingStore(
            ShardedChunkStore.from_root(
                root / "store", num_shards=NUM_SHARDS, durable=False
            )
        )
        def build(store) -> HighDensityStorageServer:
            return rig.build_server(store, stripes=c.stripes, seed=c.seed)

        server_a = build(shared)
        originals = rig.originals_of(server_a)
        repaired = server_a.layout.stripe_set(c.failed_disk)
        server_b = attach_server(shared, build)
        shared.reset()

        daemon_a = self._build_daemon("a", server_a, faults=crash_a)
        daemon_b = self._build_daemon("b", server_b)
        await daemon_a.start()
        await daemon_b.start()
        ep_a = f"127.0.0.1:{daemon_a.port}"
        ep_b = f"127.0.0.1:{daemon_b.port}"
        task_a = asyncio.create_task(daemon_a.serve_until_stopped())
        task_b = asyncio.create_task(daemon_b.serve_until_stopped())

        client = ClusterClient(
            [ep_a, ep_b],
            backoff=BackoffPolicy(seed=c.seed),
            breaker_reset_after=0.2,
            hedge_after=HEDGE_AFTER,
        )
        latencies: List[float] = []
        stop_reads = asyncio.Event()
        report: dict = {
            "seed": c.seed,
            "failed_disk": c.failed_disk,
            "crash_at_modeled": c.crash_at,
            "endpoints": {"a": ep_a, "b": ep_b},
        }
        fg_task: Optional[asyncio.Task] = None
        control: Optional[ServiceClient] = None
        try:
            # Both daemons up; a (first comer) owns every shard.
            await self.await_until(
                lambda: daemon_a.cluster.owned_shards
                and task_b.done() is False
                and daemon_b.cluster.ticks > 0,
                "both daemons heartbeating", 10.0,
            )
            report["job_a"] = await self.start_repair(
                client.call, c.failed_disk,
                shard=daemon_a.cluster.shard_of_disk(c.failed_disk),
            )
            fg_task = asyncio.create_task(
                self._foreground(client, server_a, stop_reads, latencies)
            )

            # The scripted crash fires as one of a's repair reads is priced.
            exit_a = await asyncio.wait_for(task_a, timeout=self.remaining())
            t_crash = time.monotonic()
            # Process death: the crash already ended a's repair job; its
            # leases stay on disk until the TTL expires.
            report["exit_code_a"] = exit_a
            if exit_a != EXIT_CRASHED:
                self.fail(
                    f"daemon a exited {exit_a}, expected {EXIT_CRASHED} (crash)"
                )

            control = await ServiceClient.connect("127.0.0.1", daemon_b.port)

            async def taken_over() -> bool:
                st = await control.call("cluster")
                return c.failed_disk in (st.get("handoffs") or [])

            if await self.await_until(taken_over, "journal handoff to b", 30.0):
                report["takeover_seconds"] = round(time.monotonic() - t_crash, 3)
            cluster_b = await control.call("cluster")
            report["handoffs"] = cluster_b.get("handoffs", [])
            report["failovers_b"] = cluster_b.get("failovers", 0)
            report["epochs_b"] = cluster_b.get("epochs", {})

            # Find b's resumed job and wait it out.
            job_b: Optional[int] = None

            async def job_found() -> bool:
                nonlocal job_b
                stats = await control.call("stats")
                for job in stats.get("jobs", []):
                    if job.get("disk") == c.failed_disk:
                        job_b = job.get("job_id")
                        return True
                return False

            if await self.await_until(job_found, "b's handoff repair job", 10.0):
                report["repair_b"] = await self.wait_certified(
                    control.call, job_b, "b's handoff repair"
                )
                if not report["repair_b"].get("resumed_stripes", 0):
                    self.fail(
                        "b resumed no stripes from a's journal — the crash "
                        "landed outside the repair window (tune crash_at)"
                    )
            stop_reads.set()
            report["foreground"] = await fg_task
            fg_task = None

            await self._verify(
                report, shared, server_b, originals, repaired, daemon_a, daemon_b
            )
        finally:
            stop_reads.set()
            if fg_task is not None:
                fg_task.cancel()
                try:
                    await fg_task
                except (Exception, asyncio.CancelledError):  # noqa: BLE001
                    pass
            if control is not None:
                try:
                    await control.call("shutdown")
                except Exception:  # noqa: BLE001 - already down is fine
                    pass
                await control.close()
            await client.close()
            if not task_a.done():
                daemon_a.stop()
            try:
                report["exit_code_b"] = await asyncio.wait_for(task_b, 10.0)
            except asyncio.TimeoutError:
                task_b.cancel()
                self.fail("daemon b did not shut down cleanly")

        q = percentiles(latencies)
        report["foreground_latency"] = {
            "count": len(latencies),
            **{f"p{format(k * 100, 'g').replace('.', '')}": round(v, 6)
               for k, v in q.items()},
        }
        p99 = q.get(0.99)
        if p99 is not None and p99 > c.p99_budget:
            self.fail(
                f"foreground p99 {p99:.3f}s exceeded budget {c.p99_budget}s"
            )
        return self.finish(report)

    # ------------------------------------------------------------ invariants
    async def _verify(
        self,
        report: dict,
        shared: rig.CountingStore,
        server_b: HighDensityStorageServer,
        originals: Dict[int, bytes],
        repaired: List[int],
        daemon_a: ServiceDaemon,
        daemon_b: ServiceDaemon,
    ) -> None:
        """The six promises: identical bytes, parity-clean repaired
        stripes, no double writes, repair memory given back, valid
        digests, and a fenced stale owner."""
        disk = self.config.failed_disk
        report["byte_identical"] = self.check(
            await rig.check_byte_identical(server_b.read_object, originals)
        )
        report["parity_clean"] = self.check(
            rig.check_parity_clean(server_b, repaired)
        )
        report["duplicate_writes"] = [
            [d, [cid.stripe_index, cid.shard_index]]
            for d, cid in shared.duplicates()
        ]
        self.check(rig.check_no_duplicate_writes(shared))
        self.check_memory(report, daemon_a.service, daemon_b.service)
        rebuilt = sorted(shared.write_counts)
        if self.check(rig.check_digests_verify(shared, rebuilt)):
            report["verified_chunks"] = len(rebuilt)
        # Revival: a's in-memory state still believes it owns the shard at
        # its old epoch; the on-disk lease now carries b's bumped epoch, so
        # the commit-point fence must reject it.
        shard = daemon_a.cluster.shard_of_disk(disk)
        report["fence_epochs"] = {
            "held": daemon_a.cluster.held.get(shard),
            "current": daemon_b.cluster.held.get(shard),
        }
        report["stale_owner_fenced"] = self.check(
            rig.check_stale_owner_fenced(daemon_a.cluster, disk)
        )


def run_chaos(config: ChaosConfig) -> dict:
    """Synchronous front door for the CLI/benchmark: run one scenario."""
    return asyncio.run(ChaosScenario(config).run())
