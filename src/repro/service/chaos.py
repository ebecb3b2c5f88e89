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
   modeled clock by :meth:`~repro.faults.spec.FaultSchedule.for_daemon`)
   kills ``a`` mid-repair. The harness then emulates process death: the
   writer's queued-but-unpersisted chunks are dropped
   (:meth:`~repro.service.sharding.AsyncShardWriter.abort`) and ``a``'s
   leases are left un-released, exactly as a real SIGKILL leaves them.
3. Daemon ``b``'s failure detector notices the missed heartbeats, claims
   the expired leases with a bumped epoch, and — via the daemon's journal
   handoff — resumes ``a``'s repair from its last committed round.
4. The report then proves the invariants the cluster design promises:
   every object is byte-identical to its pre-failure contents, every
   rebuilt chunk's CRC32C sidecar verifies, **no chunk was persisted
   twice** (a :class:`CountingStore` wraps the shared store), foreground
   p99 stayed bounded through the takeover, and the revived stale owner
   is fenced at the commit point (its held epoch lost to ``b``'s).

Determinism: the crash is placed on the *modeled* repair clock, so it
fires at the same stripe boundary every run for a given seed; wall-clock
jitter moves only the takeover latency, never which writes happened.
The shared store counts writes rather than forbidding overlap because a
batch already handed to a store thread at crash time may still land —
the same race a real crash has with the page cache — and the journal
protocol's answer (skip chunks the dead peer persisted, re-derive the
rest) is exactly what the duplicate counter validates.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import ALGORITHMS
from repro.ec.stripe import ChunkId
from repro.errors import ConfigurationError, FencedError
from repro.faults.report import EXIT_CRASHED
from repro.faults.service import ServiceFaultInjector
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.hdss.server import HDSSConfig, HighDensityStorageServer
from repro.hdss.store import ChunkStore, InMemoryChunkStore, ShardedChunkStore
from repro.obs.context import current_registry
from repro.obs.quantiles import QuantileSketch
from repro.service.client import BackoffPolicy, ClusterClient, ServiceClient
from repro.service.cluster import ClusterConfig, ClusterNode
from repro.service.netserver import ServiceDaemon
from repro.service.service import RepairService, ServiceConfig

__all__ = ["ChaosConfig", "ChaosScenario", "CountingStore", "run_chaos"]

Key = Tuple[int, ChunkId]


class CountingStore(ChunkStore):
    """Write-count wrapper proving "no chunk was persisted twice".

    Delegates everything to ``inner`` (the shared sharded store) and
    counts each persisted ``(disk, chunk)``. :meth:`reset` is called
    after provisioning so only repair-plane writes are audited;
    foreground reads never write, so any key with count > 1 after the
    scenario is a genuine duplicate write across the two daemons.
    """

    def __init__(self, inner: ChunkStore) -> None:
        self.inner = inner
        self.write_counts: Dict[Key, int] = {}

    def _count(self, disk_id: int, chunk_id: ChunkId) -> None:
        key = (disk_id, chunk_id)
        self.write_counts[key] = self.write_counts.get(key, 0) + 1

    def reset(self) -> None:
        self.write_counts.clear()

    def duplicates(self) -> List[Key]:
        return sorted(k for k, c in self.write_counts.items() if c > 1)

    # ------------------------------------------------------------ delegation
    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        self._count(disk_id, chunk_id)
        self.inner.put(disk_id, chunk_id, data)

    def put_many(self, items) -> None:
        for disk_id, chunk_id, _ in items:
            self._count(disk_id, chunk_id)
        self.inner.put_many(items)

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        return self.inner.get(disk_id, chunk_id)

    def get_many(self, keys):
        return self.inner.get_many(keys)

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        self.inner.delete(disk_id, chunk_id)

    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.inner.contains(disk_id, chunk_id)

    def is_readable(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.inner.is_readable(disk_id, chunk_id)

    def verify_chunk(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.inner.verify_chunk(disk_id, chunk_id)

    def chunks_on_disk(self, disk_id: int) -> List[ChunkId]:
        return self.inner.chunks_on_disk(disk_id)

    def drop_disk(self, disk_id: int) -> int:
        return self.inner.drop_disk(disk_id)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos run (defaults match the tier-1 test geometry).

    Attributes:
        root: scratch directory (store/journal/cluster live under it).
        crash_at: modeled-clock second at which daemon ``a`` dies; modeled
            repair reads run at microsecond scale, so the default lands
            mid-repair with some stripes journaled and some in flight.
        failed_disk: disk the client fails and repairs (on daemon ``a``).
        lease_ttl / heartbeat_interval: failure-detector timing; the TTL
            bounds the takeover latency the report measures.
        p99_budget: wall-clock bound asserted on foreground read p99 —
            generous against CI jitter while still catching a client that
            waits out a dead daemon instead of hedging.
        extra_events: appended to the ``daemon_crash`` schedule, letting
            callers mix wire faults (``conn_reset``/``slow_peer``…) into
            the same deterministic run.
    """

    root: Path
    num_disks: int = 12
    n: int = 5
    k: int = 3
    chunk_size: int = 2048
    memory_chunks: int = 16
    spares: int = 3
    seed: int = 11
    stripes: int = 12
    num_shards: int = 4
    failed_disk: int = 3
    algorithm: str = "hd-psr-ap"
    crash_at: float = 2.5e-5
    lease_ttl: float = 0.6
    heartbeat_interval: float = 0.15
    hedge_after: float = 0.05
    p99_budget: float = 2.0
    deadline: float = 60.0
    extra_events: Sequence[FaultEvent] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {self.deadline}")
        if self.p99_budget <= 0:
            raise ConfigurationError(
                f"p99_budget must be > 0, got {self.p99_budget}"
            )


class ChaosScenario:
    """One seeded kill-the-owner run; :meth:`run` returns the report."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self.failures: List[str] = []
        self._deadline = 0.0

    # ------------------------------------------------------------- assembly
    def _hdss_config(self) -> HDSSConfig:
        c = self.config
        return HDSSConfig(
            num_disks=c.num_disks, n=c.n, k=c.k, chunk_size=c.chunk_size,
            memory_chunks=c.memory_chunks, spares=c.spares, seed=c.seed,
            placement="rotating",
        )

    def _schedule(self) -> FaultSchedule:
        c = self.config
        events = [FaultEvent(at=c.crash_at, kind="daemon_crash", daemon=0)]
        events.extend(c.extra_events)
        return FaultSchedule(events)

    def _build_daemon(
        self, name: str, server: HighDensityStorageServer,
        local: FaultSchedule, wire: FaultSchedule, daemon_idx: int,
    ) -> ServiceDaemon:
        c = self.config
        service = RepairService(
            server,
            ALGORITHMS[c.algorithm](),
            ServiceConfig(
                # One stripe in flight at a time: the crash then cleanly
                # separates journaled stripes from the one mid-decode, so
                # the no-duplicate-write assertion is deterministic.
                max_concurrent_stripes=1,
                journal_root=Path(c.root) / "journal",
                durable_journal=False,
            ),
            faults=local if len(local.events) else None,
        )
        cluster = ClusterNode(ClusterConfig(
            root=Path(c.root) / "cluster",
            node_id=name,
            num_shards=c.num_shards,
            lease_ttl=c.lease_ttl,
            heartbeat_interval=c.heartbeat_interval,
            durable=False,
        ))
        chaos = (
            ServiceFaultInjector(wire, daemon=daemon_idx)
            if len(wire.events) else None
        )
        return ServiceDaemon(service, port=0, cluster=cluster, chaos=chaos)

    # ------------------------------------------------------------- plumbing
    def _fail(self, message: str) -> None:
        self.failures.append(message)

    async def _await(self, predicate, what: str, timeout: float) -> bool:
        """Poll ``predicate`` (sync or async) until true or timed out."""
        deadline = min(time.monotonic() + timeout, self._deadline)
        while time.monotonic() < deadline:
            result = predicate()
            if asyncio.iscoroutine(result):
                result = await result
            if result:
                return True
            await asyncio.sleep(0.02)
        self._fail(f"timed out waiting for {what}")
        return False

    async def _foreground(
        self, client: ClusterClient, server: HighDensityStorageServer,
        stop: asyncio.Event, sketch: QuantileSketch,
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
                sketch.observe(time.monotonic() - t0)
                reads += 1
            except Exception:  # noqa: BLE001 - tallied, asserted via p99/count
                errors += 1
                await asyncio.sleep(0.01)
        return {"reads": reads, "errors": errors}

    # ------------------------------------------------------------------ run
    async def run(self) -> dict:
        """Execute the scenario; returns a JSON-able report with ``passed``."""
        c = self.config
        self._deadline = time.monotonic() + c.deadline
        root = Path(c.root)
        schedule = self._schedule()
        local_a, wire_a = schedule.for_daemon(0)
        local_b, wire_b = schedule.for_daemon(1)

        shared = CountingStore(
            ShardedChunkStore.from_root(
                root / "store", num_shards=c.num_shards, durable=False
            )
        )
        server_a = HighDensityStorageServer(self._hdss_config(), store=shared)
        server_a.provision_stripes(c.stripes, with_data=True)
        originals = {
            si: server_a.read_object(si) for si in range(len(server_a.layout))
        }
        # Daemon b fronts the same shared store. Provisioning writes data,
        # so b provisions into a throwaway store (same seed => identical
        # layout, spares, and volume sizes) and is then pointed at the
        # shared one — the in-process stand-in for a second process
        # opening the same directory tree.
        server_b = HighDensityStorageServer(
            self._hdss_config(), store=InMemoryChunkStore()
        )
        server_b.provision_stripes(c.stripes, with_data=True)
        server_b.store = shared
        shared.reset()

        daemon_a = self._build_daemon("a", server_a, local_a, wire_a, 0)
        daemon_b = self._build_daemon("b", server_b, local_b, wire_b, 1)
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
            hedge_after=c.hedge_after,
        )
        sketch = QuantileSketch((0.5, 0.9, 0.99))
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
            await self._await(
                lambda: daemon_a.cluster.owned_shards
                and task_b.done() is False
                and daemon_b.cluster.ticks > 0,
                "both daemons heartbeating", 10.0,
            )
            shard = daemon_a.cluster.shard_of_disk(c.failed_disk)
            await client.call("fail_disk", shard=shard, disk=c.failed_disk)
            submitted = await client.call(
                "repair", shard=shard, disk=c.failed_disk
            )
            report["job_a"] = submitted.get("job_id")
            fg_task = asyncio.create_task(
                self._foreground(client, server_a, stop_reads, sketch)
            )

            # The scripted crash fires inside a's modeled repair reads.
            exit_a = await asyncio.wait_for(
                task_a, timeout=max(0.0, self._deadline - time.monotonic())
            )
            t_crash = time.monotonic()
            # Process death: queued-unpersisted writes vanish with the
            # daemon; leases stay on disk until the TTL expires.
            daemon_a.service.writer.abort()
            report["exit_code_a"] = exit_a
            if exit_a != EXIT_CRASHED:
                self._fail(
                    f"daemon a exited {exit_a}, expected {EXIT_CRASHED} (crash)"
                )

            control = await ServiceClient.connect("127.0.0.1", daemon_b.port)

            async def taken_over() -> bool:
                st = await control.call("cluster")
                return c.failed_disk in (st.get("handoffs") or [])

            if await self._await(taken_over, "journal handoff to b", 30.0):
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

            if await self._await(job_found, "b's handoff repair job", 10.0):
                result = await control.call("wait", job_id=job_b)
                report["repair_b"] = {
                    k: v for k, v in result.items()
                    if k not in ("ok", "trace_id")
                }
                if not result.get("certified", False):
                    self._fail("b's handoff repair did not certify clean")
                if not result.get("resumed_stripes", 0):
                    self._fail(
                        "b resumed no stripes from a's journal — the crash "
                        "landed outside the repair window (tune crash_at)"
                    )
            stop_reads.set()
            report["foreground"] = await fg_task
            fg_task = None

            self._verify(report, shared, server_b, originals, daemon_a)
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
                daemon_a._stop.set()
            try:
                report["exit_code_b"] = await asyncio.wait_for(task_b, 10.0)
            except asyncio.TimeoutError:
                task_b.cancel()
                self._fail("daemon b did not shut down cleanly")

        q = sketch.quantiles() if sketch.count else {}
        report["foreground_latency"] = {
            "count": sketch.count,
            **{f"p{format(k * 100, 'g').replace('.', '')}": round(v, 6)
               for k, v in q.items()},
        }
        p99 = q.get(0.99)
        if p99 is not None and p99 > c.p99_budget:
            self._fail(
                f"foreground p99 {p99:.3f}s exceeded budget {c.p99_budget}s"
            )
        report["failures"] = list(self.failures)
        report["passed"] = not self.failures
        current_registry().counter(
            "hdpsr_chaos_runs_total", "Chaos scenarios executed.",
        ).labels(outcome="pass" if report["passed"] else "fail").inc()
        return report

    # ------------------------------------------------------------ invariants
    def _verify(
        self,
        report: dict,
        shared: CountingStore,
        server_b: HighDensityStorageServer,
        originals: Dict[int, bytes],
        daemon_a: ServiceDaemon,
    ) -> None:
        """The four promises: identical bytes, valid sidecars, no double
        writes, and a fenced stale owner."""
        mismatched = []
        for si, want in originals.items():
            try:
                got = server_b.read_object(si)
            except Exception as exc:  # noqa: BLE001 - recorded as mismatch
                mismatched.append((si, repr(exc)))
                continue
            if got != want:
                mismatched.append((si, "bytes differ"))
        report["byte_identical"] = not mismatched
        if mismatched:
            self._fail(f"objects not byte-identical after handoff: {mismatched}")

        dupes = shared.duplicates()
        report["duplicate_writes"] = [
            [d, [cid.stripe_index, cid.shard_index]] for d, cid in dupes
        ]
        if dupes:
            self._fail(f"{len(dupes)} chunk(s) persisted twice: {dupes[:5]}")

        bad_sidecars = []
        for (disk, cid), _count in sorted(shared.write_counts.items()):
            if not shared.verify_chunk(disk, cid):
                bad_sidecars.append((disk, cid))
        report["verified_chunks"] = len(shared.write_counts) - len(bad_sidecars)
        if bad_sidecars:
            self._fail(f"CRC32C sidecar mismatch on rebuilt chunks: {bad_sidecars}")

        # Revival: a's in-memory state still believes it owns the shard at
        # its old epoch; the on-disk lease now carries b's bumped epoch, so
        # the commit-point fence must reject it.
        try:
            daemon_a.cluster.check_fence(self.config.failed_disk)
        except FencedError as exc:
            report["stale_owner_fenced"] = True
            report["fence_epochs"] = {
                "held": exc.held_epoch, "current": exc.current_epoch,
            }
        else:
            report["stale_owner_fenced"] = False
            self._fail(
                "revived stale owner passed the fence — split-brain possible"
            )


def run_chaos(config: ChaosConfig) -> dict:
    """Synchronous front door for the CLI/benchmark: run one scenario."""
    return asyncio.run(ChaosScenario(config).run())
