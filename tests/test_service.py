"""The asyncio repair service: concurrency, faults, resume, front door.

No pytest-asyncio in the toolchain: every test is a sync function driving
its coroutine with ``asyncio.run``.
"""

import asyncio
import contextlib
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import ALGORITHMS, ReadPolicy, recover_disk
from repro.ec.stripe import ChunkId
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    InsufficientShardsError,
    JournalError,
    StorageError,
)
from repro.faults.injector import SimulatedCrash
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.core.repair_job import plan_repair
from repro.faults.report import EXIT_DATA_LOSS, LOST, RECOVERED, REPLANNED
from repro.hdss.server import attach_server
from repro.hdss.store import (
    FaultyChunkStore,
    ForwardingChunkStore,
    InMemoryChunkStore,
    ShardedChunkStore,
)
from repro.obs import MetricsRegistry, use_registry
from repro.service import RepairService, ServiceConfig
from repro.service.admission import DiskGate
from repro.service import chaos_rig as rig
from repro.service.chaos_rig import build_server as make_server
from repro.service.chaos_rig import build_service as make_service
from repro.service.chaos_rig import originals_of
from repro.service.overload import Deadline
from repro.service.service import DEGRADED_READS

#: Seconds one survivor read costs on the chaos geometry's read clock (2 KiB
#: at the default 180 MB/s): read ``j`` (0-based) is priced at
#: ``j * READ_SECONDS``, so a timed fault at ``4.5 * READ_SECONDS`` fires as
#: read 5 is priced.
READ_SECONDS = 2048 / 180e6


def assert_all_objects_intact(server, originals):
    for si, data in originals.items():
        assert server.read_object(si) == data, f"stripe {si} bytes diverged"


# ---------------------------------------------------------------------------
# DiskGate
# ---------------------------------------------------------------------------
class TestDiskGate:
    """Sequenced by events and ``sleep(0)`` turns, never by the wall clock."""

    @staticmethod
    async def turns(n=20):
        """Let every ready task run ``n`` loop turns."""
        for _ in range(n):
            await asyncio.sleep(0)

    def test_width_bounds_concurrency(self):
        async def run():
            gate = DiskGate(width=2)
            release = asyncio.Event()
            active = 0
            peak = 0

            async def reader():
                nonlocal active, peak
                async with gate.read(3):
                    active += 1
                    peak = max(peak, active)
                    await release.wait()
                    active -= 1

            readers = [asyncio.ensure_future(reader()) for _ in range(8)]
            await self.turns()
            assert active == 2 and gate.depths()[3]["waiting_background"] == 6
            release.set()
            await asyncio.gather(*readers)
            return peak

        assert asyncio.run(run()) == 2

    def test_different_disks_do_not_interfere(self):
        async def run():
            gate = DiskGate(width=1)
            release = asyncio.Event()
            inside = []

            async def reader(disk):
                async with gate.read(disk):
                    inside.append(disk)
                    await release.wait()

            readers = [asyncio.ensure_future(reader(d)) for d in range(6)]
            await self.turns()
            held = sorted(inside)  # every disk's one slot, all at once
            release.set()
            await asyncio.gather(*readers)
            return held

        assert asyncio.run(run()) == list(range(6))

    def test_foreground_parks_background(self):
        async def run():
            gate = DiskGate(width=1)
            release = asyncio.Event()
            log = []

            def waiting(kind):
                return gate.depths().get(0, {}).get(f"waiting_{kind}", 0)

            async def holder():
                async with gate.read(0):
                    await release.wait()

            async def background():
                while not waiting("foreground"):  # let fg queue first
                    await asyncio.sleep(0)
                async with gate.read(0, foreground=False):
                    log.append("bg")

            async def foreground():
                async with gate.read(0, foreground=True):
                    log.append("fg")

            tasks = [asyncio.ensure_future(f()) for f in (holder, background, foreground)]
            while not waiting("background"):
                await asyncio.sleep(0)
            release.set()
            await asyncio.gather(*tasks)
            return log

        assert asyncio.run(run()) == ["fg", "bg"]

    def test_a_cancelled_wait_passes_its_slot_on(self):
        """A queued read cancelled before a release leaves the queue; one
        cancelled after a release handed it the slot hands the slot on."""

        async def run():
            gate = DiskGate(width=1)
            await gate.acquire(0)
            first = asyncio.ensure_future(gate.acquire(0, foreground=True))
            second = asyncio.ensure_future(gate.acquire(0, foreground=True))
            third = asyncio.ensure_future(gate.acquire(0))
            await self.turns()
            first.cancel()  # still queued
            await self.turns()
            assert gate.depths()[0]["waiting_foreground"] == 1
            gate.release(0)  # handed to ``second``, which has not resumed
            second.cancel()
            await self.turns()
            assert first.cancelled() and second.cancelled() and third.done()
            assert gate.depths()[0] == {
                "width": 1, "inflight": 1,
                "waiting_foreground": 0, "waiting_background": 0,
            }
            gate.release(0)
            return gate.depths()[0]["inflight"]

        assert asyncio.run(run()) == 0

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            DiskGate(width=0)


class OrderedGate(DiskGate):
    """A :class:`DiskGate` that records each task's acquisitions: taking
    a disk at or below one the task already holds is a violation, and
    ``multi`` counts acquisitions made while holding another gate."""

    def __init__(self, width):
        super().__init__(width)
        self.held = {}
        self.violations = []
        self.multi = 0

    @contextlib.asynccontextmanager
    async def read(self, disk_id, foreground=False, deadline=None):
        async with super().read(disk_id, foreground=foreground, deadline=deadline):
            held = self.held.setdefault(asyncio.current_task(), [])
            if held:
                self.multi += 1
                if max(held) >= disk_id:
                    self.violations.append((list(held), disk_id))
            held.append(disk_id)
            try:
                yield
            finally:
                held.remove(disk_id)


class TestRoundsHoldingGates:
    def test_rounds_and_degraded_decodes_do_not_deadlock(self):
        """One slot per disk, four stripes a job, two jobs on disjoint
        stripe sets and a stream of deadline-bound degraded reads, all at
        once: rounds and degraded decodes each hold several gates, taken
        in ascending disk order, so everything finishes. Reads of disk 3's
        chunks off both jobs' stripes decode on their own; the rest
        piggyback."""
        server = make_server(stripes=24)
        originals = originals_of(server)
        layout = server.layout
        jobs = (0, 6)
        assert not set(layout.stripe_set(0)) & set(layout.stripe_set(6))
        claimed = set(layout.stripe_set(0)) | set(layout.stripe_set(6))
        lost = [
            (si, layout[si].shard_on_disk(d))
            for d in (*jobs, 3) for si in layout.stripe_set(d)
        ]
        assert any(si not in claimed for si, _ in lost)
        want = {
            (si, s): server.store.get(layout[si].disks[s], ChunkId(si, s)).copy()
            for si, s in lost
        }
        for disk in (*jobs, 3):
            server.fail_disk(disk)

        async def read(si, shard, budget_ms):
            try:
                data = await service.read_chunk(
                    si, shard, deadline=Deadline.from_budget_ms(budget_ms)
                )
            except DeadlineExceededError:
                return None
            assert np.array_equal(data, want[si, shard]), (si, shard)
            return data

        async def run():
            tickets = [service.submit_repair(d) for d in jobs]
            reads = [
                read(si, shard, budget_ms)
                for budget_ms in (5, 50, 5000) for si, shard in lost
            ]
            done = await asyncio.wait_for(
                asyncio.gather(*reads, *(t.wait() for t in tickets)), timeout=120
            )
            await service.close()
            return done[len(reads):], [r for r in done[: len(reads)] if r is not None]

        service = make_service(server, per_disk_reads=1, max_concurrent_stripes=4)
        service.gate = OrderedGate(1)
        results, served = asyncio.run(run())
        assert all(result.certified for result in results)
        assert served, "no degraded read got through"
        assert service.gate.multi > 0 and service.gate.violations == []
        assert rig.check_memory_released(service) is None
        assert asyncio.run(rig.check_byte_identical(server.read_object, originals)) is None


# ---------------------------------------------------------------------------
# Write-back: each stripe journals, then awaits its own put
# ---------------------------------------------------------------------------
class FirstPutOf(ForwardingChunkStore):
    """Runs ``hook(land)`` in place of the first put of one stripe's
    rebuilt chunk (in the put's worker thread); ``land()`` performs it."""

    def __init__(self, inner, stripe, hook):
        super().__init__(inner)
        self.stripe = stripe
        self.hook = hook
        self.fired = False

    def put(self, disk_id, chunk_id, data):
        if chunk_id.stripe_index == self.stripe and not self.fired:
            self.fired = True
            return self.hook(lambda: self.inner.put(disk_id, chunk_id, data))
        self.inner.put(disk_id, chunk_id, data)


class TestWriteBack:
    DISK = 0

    def _stores(self, tmp_path):
        """A provisioned counting file store, its originals, and the stripe
        whose put the test intercepts."""
        counting = rig.CountingStore(ShardedChunkStore.from_root(
            tmp_path / "store", num_shards=4, durable=False
        ))
        server = make_server(counting)
        originals = originals_of(server)
        counting.reset()
        return counting, originals, server.layout.stripe_set(self.DISK)[0]

    def _resume(self, counting, journal_root):
        """A second incarnation over the same store and journal finishes
        the repair; returns ``(result, server, service)``."""
        async def run():
            server = attach_server(counting, make_server)
            server.fail_disk(self.DISK, destroy_data=False)
            service = make_service(
                server, journal_root=journal_root, max_concurrent_stripes=4
            )
            result = await service.submit_repair(self.DISK, resume=True).wait()
            await service.close()
            return result, server, service

        return asyncio.run(run())

    def test_a_put_that_lands_after_the_crash_has_its_record(self, tmp_path):
        """Four stripes in flight; one rebuilt chunk's put is parked in its
        thread until the job has died, then lands. The record went first,
        so the resume replays that stripe — no survivor read, no second
        put. Put-then-record would resume it FRESH and write it twice."""
        counting, originals, parked_si = self._stores(tmp_path)
        parked, release = threading.Event(), threading.Event()

        def park(land):
            parked.set()
            release.wait(timeout=30)
            land()
            raise SimulatedCrash("the process died as the parked chunk landed")

        journal_root = tmp_path / "journal"

        async def crash():
            server = attach_server(
                FirstPutOf(counting, parked_si, park), make_server
            )
            server.fail_disk(self.DISK)
            service = make_service(
                server, journal_root=journal_root, max_concurrent_stripes=4
            )
            ticket = service.submit_repair(self.DISK)
            assert await asyncio.to_thread(parked.wait, 30)
            ticket.task.cancel()  # the job dies with the put in its thread
            with pytest.raises(asyncio.CancelledError):
                await ticket.task
            release.set()
            return service

        # asyncio.run joins the worker threads: the parked put has landed.
        crashed = asyncio.run(crash())
        assert rig.check_memory_released(crashed) is None

        counting.read_counts.clear()
        result, server, service = self._resume(counting, journal_root)
        assert result.certified
        assert result.resumed_stripes >= 1
        rereads = [cid for _, cid in counting.read_counts if cid.stripe_index == parked_si]
        assert rereads == [], "the parked stripe was re-derived, not replayed"
        assert rig.check_no_duplicate_writes(counting) is None
        assert rig.check_memory_released(service) is None
        assert asyncio.run(rig.check_byte_identical(server.read_object, originals)) is None

    def test_failed_put_fails_the_job_and_resumes_certified(self, tmp_path):
        counting, originals, failing_si = self._stores(tmp_path)

        def disk_full(land):
            raise OSError("disk full")

        journal_root = tmp_path / "journal"

        async def run():
            server = attach_server(
                FirstPutOf(counting, failing_si, disk_full), make_server
            )
            server.fail_disk(self.DISK)
            service = make_service(
                server, journal_root=journal_root, max_concurrent_stripes=4
            )
            with pytest.raises(OSError, match="disk full"):
                await service.submit_repair(self.DISK).wait()
            return service

        failed = asyncio.run(run())
        assert not failed._queue and not failed._running  # no pass left behind
        assert rig.check_memory_released(failed) is None

        result, server, _ = self._resume(counting, journal_root)
        assert result.certified
        assert rig.check_no_duplicate_writes(counting) is None
        assert asyncio.run(rig.check_byte_identical(server.read_object, originals)) is None


# ---------------------------------------------------------------------------
# RepairService: repairs
# ---------------------------------------------------------------------------
class TestServiceRepair:
    def test_single_repair_certified_and_byte_identical(self, tmp_path):
        store = ShardedChunkStore.from_root(tmp_path, num_shards=4, durable=False)
        server = make_server(store=store)
        originals = originals_of(server)
        # Capture before repair: commit_writebacks remaps the stripes onto
        # spares, after which stripe_set(0) is empty.
        expected_stripes = len(server.layout.stripe_set(0))
        server.fail_disk(0)

        async def run():
            service = make_service(server)
            result = await service.submit_repair(0).wait()
            await service.close()
            return result

        result = asyncio.run(run())
        assert result.certified
        assert result.stripes == expected_stripes
        assert result.chunks_rebuilt == result.stripes
        assert result.exit_code == 0
        assert_all_objects_intact(server, originals)

    def test_concurrent_disjoint_repairs_both_certify_byte_identical(self):
        # Rotating placement, 12 disks, n=5: disks 0 and 6 hold disjoint
        # stripe sets, so the two concurrent repairs share no stripe.
        server = make_server()
        originals = originals_of(server)
        assert not set(server.layout.stripe_set(0)) & set(server.layout.stripe_set(6))
        server.fail_disk(0)
        server.fail_disk(6)

        async def run():
            service = make_service(server)
            t0 = service.submit_repair(0)
            t6 = service.submit_repair(6)
            results = await asyncio.gather(t0.wait(), t6.wait())
            await service.close()
            return results

        r0, r6 = asyncio.run(run())
        assert r0.certified and r6.certified
        assert_all_objects_intact(server, originals)

    def test_overlapping_failures_claim_each_stripe_once(self):
        """Each job lists every stripe its disk touches; a stripe both
        touch is rebuilt by whichever pass runs first — both lost chunks,
        ``k`` reads — and the other job's pass records it with no read."""
        store = rig.CountingStore(InMemoryChunkStore())
        server = make_server(store)
        originals = originals_of(server)
        store.reset()
        # Capture before repair: after writeback the stripes no longer
        # reference disks 0/1, so stripes_touching would come back empty.
        on_0, on_1 = (set(server.layout.stripe_set(d)) for d in (0, 1))
        server.fail_disk(0)
        server.fail_disk(1)

        async def run():
            service = make_service(server)
            t0 = service.submit_repair(0)
            t1 = service.submit_repair(1)
            return await asyncio.gather(t0.wait(), t1.wait()), service

        (r0, r1), service = asyncio.run(run())
        assert set(r0.loss.stripes) == on_0 and set(r1.loss.stripes) == on_1
        assert on_0 & on_1, "the geometry has no shared stripe"
        assert r0.chunks_rebuilt + r1.chunks_rebuilt == len(on_0) + len(on_1)
        assert sum(store.read_counts.values()) == rig.K * len(on_0 | on_1)
        assert store.duplicates() == []
        assert not r0.loss.has_loss and not r1.loss.has_loss
        assert r0.certified and r1.certified
        assert_all_objects_intact(server, originals)

    def test_submit_on_healthy_disk_fails(self):
        server = make_server()

        async def run():
            service = make_service(server)
            with pytest.raises(StorageError, match="healthy"):
                await service.submit_repair(0).wait()

        asyncio.run(run())

    def test_repair_metrics_exported(self):
        server = make_server()
        server.fail_disk(0)
        registry = MetricsRegistry()

        async def run():
            service = make_service(server)
            with use_registry(registry):
                return await service.submit_repair(0).wait()

        result = asyncio.run(run())
        assert result.certified
        stripes = registry.get("hdpsr_service_repair_stripes_total")
        assert stripes is not None
        assert stripes.labels(outcome="recovered").value == result.stripes


# ---------------------------------------------------------------------------
# RepairService: the foreground front door
# ---------------------------------------------------------------------------
class TestFrontDoor:
    def test_healthy_read_returns_stored_bytes(self):
        server = make_server()

        async def run():
            service = make_service(server)
            return await service.read_chunk(0, 0)

        data = asyncio.run(run())
        assert np.array_equal(data, server.store.get(0, ChunkId(0, 0)))

    def test_degraded_read_without_repair_decodes(self):
        server = make_server()
        stripe = server.layout[0]
        lost_disk = stripe.disks[1]
        expected = server.store.get(lost_disk, ChunkId(0, 1)).copy()
        server.fail_disk(lost_disk)

        async def run():
            service = make_service(server)
            registry = MetricsRegistry()
            with use_registry(registry):
                data = await service.read_chunk(0, 1)
            return data, registry

        data, registry = asyncio.run(run())
        assert np.array_equal(data, expected)
        assert registry.get(DEGRADED_READS).labels(source="decode").value == 1

    @pytest.mark.parametrize("known_bad", [True, False])
    def test_unreadable_sector_degrades_instead_of_failing(self, known_bad):
        """A latent sector error on a live disk is served through decode —
        as its subclass, the CRC mismatch, always was — whether the store
        says so up front (``is_readable``) or only when read. It is not
        corruption: nothing is quarantined, nothing read-repaired."""
        store = FaultyChunkStore(InMemoryChunkStore())
        server = make_server(store)
        disk, cid = server.layout[0].disks[0], ChunkId(0, 0)
        expected = store.get(disk, cid).copy()
        store.mark_bad(disk, cid)
        if not known_bad:
            store.is_readable = store.contains  # the sector dies under the read

        async def run():
            service = make_service(server)
            registry = MetricsRegistry()
            with use_registry(registry):
                data = await service.read_chunk(0, 0)
            return data, registry, service

        data, registry, service = asyncio.run(run())
        assert data.tobytes() == expected.tobytes()
        assert registry.get(DEGRADED_READS).labels(source="decode").value == 1
        assert not service.quarantine and service.corrupt_found == 0

    def test_degraded_read_piggybacks_on_inflight_repair(self):
        server = make_server()
        originals = originals_of(server)
        stripes_of_0 = server.layout.stripe_set(0)
        si = stripes_of_0[0]
        shard = server.layout[si].shard_on_disk(0)
        expected = server.store.get(0, ChunkId(si, shard)).copy()
        server.fail_disk(0)

        async def run():
            registry = MetricsRegistry()
            with use_registry(registry):
                service = make_service(server)
                ticket = service.submit_repair(0)
                # Wait for the job to queue the stripe's pass, then read
                # the lost chunk *while the repair is in flight*.
                while service._pass_of(si) is None:
                    assert not ticket.done
                    await asyncio.sleep(0)
                data = await service.read_chunk(si, shard)
                result = await ticket.wait()
                await service.close()
            return data, result, registry

        data, result, registry = asyncio.run(run())
        assert result.certified
        assert np.array_equal(data, expected)
        hits = registry.get(DEGRADED_READS).labels(source="piggyback").value
        assert hits == 1
        assert_all_objects_intact(server, originals)

    def test_read_object_during_repair_byte_identical(self):
        server = make_server()
        originals = originals_of(server)
        server.fail_disk(0)

        async def run():
            service = make_service(server)
            ticket = service.submit_repair(0)
            objs = {
                si: await service.read_object(si)
                for si in server.layout.stripe_set(0)
            }
            await ticket.wait()
            await service.close()
            return objs

        objs = asyncio.run(run())
        for si, data in objs.items():
            assert data == originals[si], f"degraded object {si} diverged"

    def test_too_many_failures_raise_insufficient_shards(self):
        server = make_server()
        for disk in server.layout[0].disks[:3]:  # k=3, m=2: 3 losses is fatal
            server.fail_disk(disk)

        async def run():
            service = make_service(server)
            with pytest.raises(InsufficientShardsError):
                await service.read_chunk(0, 0)

        asyncio.run(run())


# ---------------------------------------------------------------------------
# RepairService under faults
# ---------------------------------------------------------------------------
class TestServiceFaults:
    def test_survivor_disk_failure_mid_repair_replans(self):
        server = make_server()
        originals = originals_of(server)
        server.fail_disk(0)
        # Fail a survivor of disk 0's stripes as the second read is priced;
        # the decodes must replan onto other survivors.
        victim = server.layout[server.layout.stripe_set(0)[0]].disks[1]
        schedule = FaultSchedule(
            [FaultEvent(at=0.5 * READ_SECONDS, kind="disk_fail", disk=victim)]
        )

        async def run():
            service = RepairService(
                server, ALGORITHMS["hd-psr-ap"](), ServiceConfig(), faults=schedule
            )
            result = await service.submit_repair(0).wait()
            await service.close()
            return result

        result = asyncio.run(run())
        assert not result.loss.has_loss
        assert result.loss.faults_injected.get("disk_fail") == 1
        assert result.loss.replans + result.loss.fresh_restarts >= 1
        assert_all_objects_intact(server, originals)

    @staticmethod
    def fsr_round_disks(server):
        """The disks of the one stripe's FSR round, in read order, and each
        read's price on the read clock."""
        planned = plan_repair(server, ALGORITHMS["fsr"](), [0], jittered=False)
        (sp,) = planned.plan.stripe_plans
        (rnd,) = sp.rounds
        stripe = server.layout[planned.stripe_indices[sp.stripe_index]]
        shards = planned.survivor_ids[sp.stripe_index]
        disks = [stripe.disks[shards[col]] for col in rnd]
        size = server.config.chunk_size
        return disks, [server.disk(d).transfer_time(size, jittered=False) for d in disks]

    def repair_one_stripe(self, schedule_of):
        """Repair the one stripe of a one-stripe server with FSR under
        ``schedule_of(round disks, read prices)``; return the job's loss."""
        server = make_server(stripes=1)
        server.fail_disk(0)
        schedule = schedule_of(*self.fsr_round_disks(server))

        async def run():
            service = RepairService(
                server, ALGORITHMS["fsr"](), ServiceConfig(), faults=schedule
            )
            result = await service.submit_repair(0).wait()
            await service.close()
            return result

        loss = asyncio.run(run()).loss
        assert loss.faults_injected == {"disk_fail": 1}
        return loss

    def test_a_disk_failing_after_its_read_leaves_the_stripe_recovered(self):
        # Read 1's disk dies between reads 1 and 2: read 1 already has its
        # bytes, so the fault lands between reads and the stripe never sees
        # it. A round priced whole before any get would fail read 1's get.
        loss = self.repair_one_stripe(lambda disks, prices: FaultSchedule([
            FaultEvent(at=prices[0] + 0.5 * prices[1], kind="disk_fail", disk=disks[1])
        ]))
        assert loss.stripes == {0: RECOVERED}
        assert (loss.replans, loss.reread_chunks) == (0, 0)

    def test_a_dead_survivor_ends_its_rounds_reads(self):
        # Read 1's disk dies as read 1 is priced: the round stops there, so
        # only read 0 is folded and the salvage reads the k - 1 shards it
        # needs from the two not yet read — k reads, none twice. Folding
        # read 2 too would leave the salvage a re-read.
        loss = self.repair_one_stripe(lambda disks, prices: FaultSchedule([
            FaultEvent(at=0.5 * prices[0], kind="disk_fail", disk=disks[1])
        ]))
        assert loss.stripes == {0: REPLANNED}
        assert (loss.replans, loss.salvaged_chunks, loss.reread_chunks) == (1, 1, 0)

    def test_slow_fault_with_hedging_policy(self):
        server = make_server()
        originals = originals_of(server)
        server.fail_disk(0)
        victim = server.layout[server.layout.stripe_set(0)[0]].disks[2]
        schedule = FaultSchedule(
            [FaultEvent(at=0.0, kind="slow", disk=victim, factor=100.0)]
        )
        base = server.disk(victim).transfer_time(server.config.chunk_size,
                                                 jittered=False)

        async def run():
            service = RepairService(
                server,
                ALGORITHMS["hd-psr-ap"](),
                ServiceConfig(policy=ReadPolicy(
                    timeout_seconds=base * 2, max_retries=1, hedge=True,
                )),
                faults=schedule,
            )
            result = await service.submit_repair(0).wait()
            await service.close()
            return result

        result = asyncio.run(run())
        assert not result.loss.has_loss
        assert result.loss.timeouts >= 1
        assert result.loss.hedged_reads + result.loss.replans >= 1
        assert_all_objects_intact(server, originals)

    def test_forced_read_waits_the_hang_out_like_the_executor(self):
        # A hung survivor whose retries are spent, with hedging off, is
        # forced: it waits the 0.5 s window out. Priced at the hung speed
        # instead, one read would cost hours of clock and every later timed
        # fault would fire at the very next read. recover_disk runs the
        # same job body, so one stripe at a time they end on the same second.
        def setup():
            server = make_server()
            server.fail_disk(0)
            victim = server.layout[server.layout.stripe_set(0)[0]].disks[1]
            schedule = FaultSchedule(
                [FaultEvent(at=0.0, kind="hang", disk=victim, duration=0.5)]
            )
            return server, schedule

        policy = ReadPolicy(
            timeout_seconds=2 * READ_SECONDS, max_retries=0, hedge=False
        )
        server, schedule = setup()
        sync = recover_disk(
            server, ALGORITHMS["hd-psr-ap"](), 0, faults=schedule, policy=policy
        )
        server, schedule = setup()

        async def run():
            service = make_service(
                server, faults=schedule, policy=policy, max_concurrent_stripes=1
            )
            result = await service.submit_repair(0).wait()
            await service.close()
            return service, result

        service, result = asyncio.run(run())
        assert result.certified and sync.certified
        assert result.loss.timeouts == sync.loss.timeouts == 1
        assert 0.5 < service.clock.now < 0.501
        assert service.clock.now == sync.data_path.modeled_seconds

    def test_shard_dying_in_a_forced_read_loses_one_stripe_not_the_job(self):
        # A slow survivor whose hedge has no alternative is force-read; when
        # that forced read then hits a latent sector error the shard is
        # handled as dead (replan / restart / LOST) like any other — it used
        # to escape the stripe task and kill the whole job.
        store = FaultyChunkStore(InMemoryChunkStore())
        server = make_server(store=store)
        originals = originals_of(server)
        server.fail_disk(0)
        si = server.layout.stripe_set(0)[0]
        stripe = server.layout[si]
        planned = server.survivor_shards(stripe, [0])
        (unplanned,) = set(stripe.surviving_shards([0])) - set(planned)
        first = planned[0]
        base = server.disk(stripe.disks[first]).transfer_time(
            server.config.chunk_size, jittered=False
        )
        server.degrade_disk(stripe.disks[first], 100.0)
        store.mark_bad(stripe.disks[first], ChunkId(si, first))
        store.mark_bad(stripe.disks[unplanned], ChunkId(si, unplanned))

        async def run():
            service = make_service(server, policy=ReadPolicy(
                hedge=True, timeout_seconds=2 * base, max_retries=0,
            ))
            result = await service.submit_repair(0).wait()
            await service.close()
            return result

        result = asyncio.run(run())
        assert result.loss.lost == [si]
        assert result.loss.stripes[si] == LOST
        assert result.exit_code == EXIT_DATA_LOSS
        assert result.stripes_repaired == result.stripes - 1
        del originals[si]
        assert_all_objects_intact(server, originals)

    def test_process_crash_escapes_ticket(self, tmp_path):
        server = make_server()
        server.fail_disk(0)
        schedule = FaultSchedule(
            [FaultEvent(at=0.5 * READ_SECONDS, kind="process_crash")]
        )

        async def run():
            service = RepairService(
                server, ALGORITHMS["hd-psr-ap"](),
                ServiceConfig(journal_root=tmp_path / "journal",
                              durable_journal=False),
                faults=schedule,
            )
            await service.submit_repair(0).wait()

        with pytest.raises(SimulatedCrash):
            asyncio.run(run())
        # The journal survived the crash and is resumable.
        from repro.journal.journal import journal_exists

        assert journal_exists(tmp_path / "journal" / "disk-000")

    def test_resume_needs_journal_root(self):
        server = make_server()
        server.fail_disk(0)

        async def run():
            service = make_service(server)
            with pytest.raises(JournalError):
                await service.submit_repair(0, resume=True).wait()

        asyncio.run(run())


# ---------------------------------------------------------------------------
# Crash + resume: byte-identical recovery across service incarnations
# ---------------------------------------------------------------------------
class TestServiceResume:
    def test_crashed_service_resumes_byte_identical(self, tmp_path):
        store = ShardedChunkStore.from_root(tmp_path / "store", num_shards=4,
                                            durable=False)
        server = make_server(store=store, seed=23)
        originals = originals_of(server)
        server.fail_disk(0)
        journal_root = tmp_path / "journal"
        schedule = FaultSchedule(
            [FaultEvent(at=4.5 * READ_SECONDS, kind="process_crash")]
        )

        async def crash_run():
            # One stripe at a time so the first stripe (reads 0-2) reaches
            # stripe_done (and is journaled) before the crash at read 5.
            service = RepairService(
                server, ALGORITHMS["hd-psr-ap"](),
                ServiceConfig(journal_root=journal_root, durable_journal=False,
                              max_concurrent_stripes=1),
                faults=schedule,
            )
            await service.submit_repair(0).wait()

        with pytest.raises(SimulatedCrash):
            asyncio.run(crash_run())

        # Second incarnation: same config and store, same fault schedule
        # (the journal's resume count skips the already-fired crash).
        store2 = ShardedChunkStore.from_root(tmp_path / "store", num_shards=4,
                                             durable=False)
        server2 = make_server(store=store2, seed=23)
        server2.fail_disk(0)

        async def resume_run():
            service = RepairService(
                server2, ALGORITHMS["hd-psr-ap"](),
                ServiceConfig(journal_root=journal_root, durable_journal=False),
                faults=schedule,
            )
            result = await service.submit_repair(0, resume=True).wait()
            await service.close()
            return result

        result = asyncio.run(resume_run())
        assert result.certified
        assert result.resumed_stripes >= 1
        assert_all_objects_intact(server2, originals)

    def test_resume_refuses_mismatched_server(self, tmp_path):
        server = make_server(seed=5)
        server.fail_disk(0)
        journal_root = tmp_path / "journal"
        schedule = FaultSchedule(
            [FaultEvent(at=4.5 * READ_SECONDS, kind="process_crash")]
        )

        async def crash_run():
            service = RepairService(
                server, ALGORITHMS["hd-psr-ap"](),
                ServiceConfig(journal_root=journal_root, durable_journal=False),
                faults=schedule,
            )
            await service.submit_repair(0).wait()

        with pytest.raises(SimulatedCrash):
            asyncio.run(crash_run())

        other = make_server(seed=99)  # different fingerprint
        other.fail_disk(0)

        async def resume_run():
            service = RepairService(
                other, ALGORITHMS["hd-psr-ap"](),
                ServiceConfig(journal_root=journal_root, durable_journal=False),
            )
            with pytest.raises(JournalError, match="different server"):
                await service.submit_repair(0, resume=True).wait()

        asyncio.run(resume_run())

    def test_journal_dirs_are_per_disk(self, tmp_path):
        server = make_server()
        server.fail_disk(0)
        server.fail_disk(6)
        journal_root = tmp_path / "journal"

        async def run():
            service = RepairService(
                server, ALGORITHMS["hd-psr-ap"](),
                ServiceConfig(journal_root=journal_root, durable_journal=False),
            )
            await asyncio.gather(
                service.submit_repair(0).wait(),
                service.submit_repair(6).wait(),
            )
            await service.close()

        asyncio.run(run())
        assert (Path(journal_root) / "disk-000").is_dir()
        assert (Path(journal_root) / "disk-006").is_dir()


# ---------------------------------------------------------------------------
# Silent corruption at the front door
# ---------------------------------------------------------------------------
class TestSilentCorruptionFrontDoor:
    """A corrupt chunk must never cross the front door as payload bytes:
    healthy reads degrade through decode, degraded decodes surface a
    structured retryable error — in both cases the rotted chunk is
    quarantined and read-repaired in the background."""

    def _file_service(self, tmp_path, **cfg):
        store = ShardedChunkStore.from_root(
            tmp_path / "store", num_shards=2, durable=False
        )
        return make_service(make_server(store=store), **cfg)

    @staticmethod
    def _corrupt(service, stripe_index, shard_idx, kind="bitrot"):
        from repro.faults import apply_corruption

        disk = service.server.layout[stripe_index].disks[shard_idx]
        cid = ChunkId(stripe_index, shard_idx)
        pristine = service.server.store.get(disk, cid).copy()
        apply_corruption(
            service.server.store,
            FaultEvent(
                at=0.0, kind=kind, disk=disk, stripe=stripe_index, shard=shard_idx
            ),
        )
        return disk, pristine

    def test_corrupt_healthy_read_degrades_never_serves_rot(self, tmp_path):
        async def run():
            service = self._file_service(tmp_path)
            disk, pristine = self._corrupt(service, 0, 1)
            cid = ChunkId(0, 1)
            data = await service.read_chunk(0, 1)
            assert np.array_equal(data, pristine)
            assert service.corrupt_found == 1
            await service.close()  # drains the background read-repair
            assert service.corrupt_repaired == 1
            assert not service.is_quarantined(disk, cid)
            assert service.server.store.verify_chunk(disk, cid)
            assert np.array_equal(service.server.store.get(disk, cid), pristine)

        asyncio.run(run())

    def test_corrupt_survivor_raises_quarantined_then_retry_succeeds(self, tmp_path):
        from repro.errors import ChunkQuarantinedError

        async def run():
            service = self._file_service(tmp_path)
            layout = service.server.layout
            failed_disk = layout[0].disks[0]
            stripe_index = layout.stripe_set(failed_disk)[0]
            stripe = layout[stripe_index]
            target = stripe.shard_on_disk(failed_disk)
            cid = ChunkId(stripe_index, target)
            pristine = service.server.store.get(failed_disk, cid).copy()
            service.server.fail_disk(failed_disk)
            bad = [
                s for s in stripe.surviving_shards([failed_disk]) if s != target
            ][0]
            bad_disk, _ = self._corrupt(service, stripe_index, bad)

            with pytest.raises(ChunkQuarantinedError) as err:
                await service.read_chunk(stripe_index, target)
            assert err.value.stripe == stripe_index
            assert err.value.shard == bad
            assert err.value.disk == bad_disk
            assert service.is_quarantined(bad_disk, ChunkId(stripe_index, bad))
            # the retry plans around the quarantined survivor
            data = await service.read_chunk(stripe_index, target)
            assert np.array_equal(data, pristine)
            await service.close()

        asyncio.run(run())

    def test_repair_read_quarantines_corrupt_survivor(self, tmp_path):
        """repair_chunk hitting a second rotted chunk quarantines it too,
        and the same pass rebuilds both instead of decoding garbage."""

        async def run():
            service = self._file_service(tmp_path)
            store = service.server.store
            disk_a, pristine_a = self._corrupt(service, 4, 0)
            service.quarantine_chunk(disk_a, 4, 0, source="test", auto_repair=False)
            # shard 1 is the first clean-looking survivor the read-repair reads
            disk_b, pristine_b = self._corrupt(service, 4, 1)
            assert await service.repair_chunk(4, 0)
            assert service.corrupt_found == service.corrupt_repaired == 2
            assert len(service.quarantine) == 0
            for disk, shard, pristine in ((disk_a, 0, pristine_a), (disk_b, 1, pristine_b)):
                assert store.verify_chunk(disk, ChunkId(4, shard))
                assert np.array_equal(store.get(disk, ChunkId(4, shard)), pristine)
            # nothing is left to rebuild: the second call reads nothing
            def no_read(*_):
                raise AssertionError("repair_chunk read a rebuilt stripe")

            store.get = no_read
            assert await service.repair_chunk(4, 1)
            assert service.corrupt_repaired == 2
            await service.close()

        asyncio.run(run())

    def test_read_repair_syncs_its_put_before_the_verify(self, tmp_path):
        """The read-repair's commit point: put, then one sync making the
        rename durable, then the verify that lifts the quarantine."""

        class Recording(ForwardingChunkStore):
            events = []

            def put(self, disk_id, chunk_id, data):
                self.events.append("put")
                self.inner.put(disk_id, chunk_id, data)

            def sync(self, disks=()):
                self.events.append("sync")
                self.inner.sync(disks)

            def verify_chunk(self, disk_id, chunk_id):
                self.events.append("verify")
                return self.inner.verify_chunk(disk_id, chunk_id)

        async def run():
            store = Recording(ShardedChunkStore.from_root(tmp_path / "store", num_shards=2))
            service = make_service(make_server(store=store))
            disk, pristine = self._corrupt(service, 4, 0)
            service.quarantine_chunk(disk, 4, 0, source="test", auto_repair=False)
            store.events.clear()
            assert await service.repair_chunk(4, 0)
            assert store.events == ["put", "sync", "verify"]
            assert np.array_equal(store.get(disk, ChunkId(4, 0)), pristine)
            await service.close()

        asyncio.run(run())
