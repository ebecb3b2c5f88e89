"""The failover failure matrix: crashes around commits, handoff, fencing.

Each case kills a repairing service at a different point relative to its
journal's records, then has a *different* service instance — fronting the
same shared store and journal directory, the way a surviving daemon does
after claiming the dead peer's shard — resume the repair. The invariants
are always the same: byte-identical objects, no chunk persisted twice,
and a fenced stale owner refused at the commit point.

The full wire-level scenario (real sockets, leases expiring on the wall
clock, hedged client reads) lives in ``ChaosScenario`` and runs once in
``test_chaos_episodes.py``; the matrix cases here stay socket-free so each
timing variant is cheap enough to enumerate. Servers, services and the
invariant checks are the chaos rig's — the same ones the scenario uses.
"""

import asyncio

import pytest

from repro.ec.stripe import ChunkId
from repro.errors import FencedError
from repro.faults.injector import SimulatedCrash
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.hdss.server import attach_server
from repro.hdss.store import ShardedChunkStore
from repro.service import chaos_rig as rig
from repro.service.chaos_rig import build_server as make_server
from repro.service.cluster import ClusterClock, ClusterConfig, ClusterNode

DISK = 3
#: Seconds one survivor read costs on the chaos geometry's read clock (2 KiB
#: at the default 180 MB/s). Each of disk 3's five stripes is one round of
#: three reads, and read ``j`` (0-based) is priced at ``j * READ_SECONDS``,
#: so a crash at ``6.5 * READ_SECONDS`` fires as read 7 is priced, with
#: two stripes done.
READ_SECONDS = 2048 / 180e6


pytestmark = pytest.mark.usefixtures("fresh_registry")


def make_service(server, journal_root, faults=None, fence=None):
    return rig.build_service(
        server, max_concurrent_stripes=1, journal_root=journal_root,
        faults=faults, fence=fence,
    )


def shared_store(tmp_path):
    return rig.CountingStore(
        ShardedChunkStore.from_root(tmp_path / "store", durable=False)
    )


async def crash_repair(service, disk=DISK, resume=False):
    """Run a repair expected to die of a scripted crash."""
    ticket = service.submit_repair(disk, resume=resume)
    with pytest.raises(SimulatedCrash):
        await ticket.task


async def finish_repair(service, disk=DISK):
    ticket = service.submit_repair(disk, resume=True)
    result = await ticket.task
    await service.close()
    return result


async def assert_invariants(store, server, originals, result):
    for failure in (
        rig.check_repair_certified(result.summary(), "handoff repair"),
        rig.check_no_duplicate_writes(store),
        await rig.check_byte_identical(server.read_object, originals),
    ):
        assert failure is None, failure


def crash_then_handoff(tmp_path, crash_at):
    """One matrix cell: owner crashes at ``crash_at`` (read-clock seconds),
    a survivor resumes from the shared journal. Returns (result, store)."""
    async def run():
        store = shared_store(tmp_path)
        server_a = make_server(store)
        originals = rig.originals_of(server_a)
        store.reset()
        journal = tmp_path / "journal"
        schedule = FaultSchedule(
            [FaultEvent(at=crash_at, kind="process_crash")]
        )
        service_a = make_service(server_a, journal, faults=schedule)
        server_a.fail_disk(DISK)
        await crash_repair(service_a)

        server_b = attach_server(store, make_server)
        server_b.fail_disk(DISK, destroy_data=False)
        service_b = make_service(server_b, journal)
        result = await finish_repair(service_b)
        await assert_invariants(store, server_b, originals, result)
        return result

    return asyncio.run(run())


# ------------------------------------------------------------------ matrix
class TestCrashTimingMatrix:
    def test_crash_before_first_stripe_done(self, tmp_path):
        # Almost immediately: the journal holds nothing but `begin`.
        result = crash_then_handoff(tmp_path, crash_at=0.5 * READ_SECONDS)
        assert result.resumed_stripes == 0
        assert result.stripes_repaired == result.stripes

    def test_crash_mid_repair_between_commits(self, tmp_path):
        result = crash_then_handoff(tmp_path, crash_at=6.5 * READ_SECONDS)
        assert result.resumed_stripes > 0, "crash landed outside the window"
        assert result.stripes_repaired == result.stripes

    def test_crash_late_after_most_stripe_dones(self, tmp_path):
        # In the last stripe's reads: every other stripe has its record.
        result = crash_then_handoff(tmp_path, crash_at=12.5 * READ_SECONDS)
        assert result.resumed_stripes == result.stripes - 1
        assert result.stripes_repaired == result.stripes

    def test_crash_during_journal_handoff(self, tmp_path):
        # The survivor itself dies mid-resume; a third incarnation
        # finishes. Two generations of partial journals, one answer.
        async def run():
            store = shared_store(tmp_path)
            server_a = make_server(store)
            originals = rig.originals_of(server_a)
            store.reset()
            journal = tmp_path / "journal"
            service_a = make_service(
                server_a, journal,
                faults=FaultSchedule(
                    [FaultEvent(at=4.5 * READ_SECONDS, kind="process_crash")]
                ),
            )
            server_a.fail_disk(DISK)
            await crash_repair(service_a)

            server_b = attach_server(store, make_server)
            server_b.fail_disk(DISK, destroy_data=False)
            # The schedule is the external fault script: the survivor's
            # copy repeats the crash it already survived (swallowed via
            # resume_count) and adds the one that kills *it* mid-resume.
            service_b = make_service(
                server_b, journal,
                faults=FaultSchedule([
                    FaultEvent(at=4.5 * READ_SECONDS, kind="process_crash"),
                    FaultEvent(at=7.5 * READ_SECONDS, kind="process_crash"),
                ]),
            )
            await crash_repair(service_b, resume=True)

            server_c = attach_server(store, make_server)
            server_c.fail_disk(DISK, destroy_data=False)
            service_c = make_service(server_c, journal)
            result = await finish_repair(service_c)
            await assert_invariants(store, server_c, originals, result)

        asyncio.run(run())


# ----------------------------------------------------------------- fencing
class TestEpochFencing:
    def test_fenced_service_cannot_commit(self, tmp_path):
        """Split-brain prevention end to end: the owner loses its lease
        mid-repair and its next durable effect raises FencedError instead
        of writing — the repair job dies fenced, not corrupting."""
        async def run():
            state = {"t": 100.0}
            cluster_cfg = dict(
                root=tmp_path / "cluster", num_shards=4,
                lease_ttl=2.0, heartbeat_interval=0.5, durable=False,
            )
            node_a = ClusterNode(
                ClusterConfig(node_id="a", endpoint="a:1", **cluster_cfg),
                clock=ClusterClock(base=lambda: state["t"]),
            )
            node_b = ClusterNode(
                ClusterConfig(node_id="b", endpoint="b:1", **cluster_cfg),
                clock=ClusterClock(base=lambda: state["t"]),
            )
            node_a.tick()
            node_b.tick()

            store = shared_store(tmp_path)
            server = make_server(store)
            store.reset()
            service = make_service(
                server, tmp_path / "journal", fence=node_a.check_fence
            )
            # a silently loses every lease to b (a partition would do
            # this); its in-memory state still says "owner".
            state["t"] += 2.5
            node_b.tick()
            state["t"] += 0.6  # a's fence cache lapses

            server.fail_disk(DISK)
            ticket = service.submit_repair(DISK)
            with pytest.raises(FencedError) as err:
                await ticket.task
            assert err.value.current_epoch > err.value.held_epoch
            # Fenced before any durable effect: nothing hit the store.
            assert store.write_counts == {}

        asyncio.run(run())

    def test_owner_fenced_at_commit_time_leaks_nothing(self, tmp_path):
        """The lease is lost after the last stripe landed, so the fence
        fires at the job's tail (commit → certify → finish). The stale
        owner must let go of everything — queued and running stripe
        passes, the job's
        ``stats`` row, the journal handle — and the new owner's resume of
        the same disk must certify without writing a chunk twice."""
        async def run():
            store = shared_store(tmp_path)
            server_a = make_server(store)
            originals = rig.originals_of(server_a)
            store.reset()
            journal = tmp_path / "journal"

            def fence(disk):
                # The lease is lost once every stripe is done.
                jobs = service_a.snapshot()["jobs"]
                if jobs and jobs[0]["stripes_done"] == jobs[0]["stripes_total"]:
                    raise FencedError("lease lost", held_epoch=1, current_epoch=2)

            service_a = make_service(server_a, journal, fence=fence)
            server_a.fail_disk(DISK)
            ticket = service_a.submit_repair(DISK)
            with pytest.raises(FencedError):
                await ticket.task
            assert not service_a._queue and not service_a._running
            (job,) = service_a.snapshot()["jobs"]
            assert job["done"] and job["stripes_done"] == job["stripes_total"]
            assert service_a._jobs[ticket.job_id].journal._writer._fh is None
            await service_a.close()

            server_b = attach_server(store, make_server)
            server_b.fail_disk(DISK, destroy_data=False)
            result = await finish_repair(make_service(server_b, journal))
            assert result.resumed_stripes == result.stripes
            await assert_invariants(store, server_b, originals, result)
            assert rig.check_parity_clean(server_b, result.scrub.clean) is None

        asyncio.run(run())

    def test_revived_stale_owner_rejected_after_handoff(self, tmp_path):
        async def run():
            state = {"t": 0.0}
            cfg = dict(
                root=tmp_path / "cluster", num_shards=4,
                lease_ttl=1.0, heartbeat_interval=0.25, durable=False,
            )
            a = ClusterNode(
                ClusterConfig(node_id="a", endpoint="a:1", **cfg),
                clock=ClusterClock(base=lambda: state["t"]),
            )
            b = ClusterNode(
                ClusterConfig(node_id="b", endpoint="b:1", **cfg),
                clock=ClusterClock(base=lambda: state["t"]),
            )
            a.tick()
            b.tick()
            state["t"] += 1.5
            claims = b.tick()  # a is "dead"; b takes everything
            assert claims
            # a revives with stale in-memory ownership: every commit-point
            # check must fail, and must not disturb b's epoch.
            state["t"] += 0.3
            for shard in range(4):
                with pytest.raises(FencedError):
                    a.check_fence(shard)  # disk i -> shard i for i < 4
            assert all(e == 2 for e in b.held.values())
            a_tick = a.tick()
            assert a_tick == []  # revival does not steal leases back

        asyncio.run(run())


class TestReadRepairAcrossShards:
    def test_a_read_repair_never_writes_a_peers_shard(self, tmp_path):
        """Node a read-repairs its own chunk on a stripe that also holds a
        failed disk of a shard node b owns. The stripe rebuilds both, but a
        writes only its own chunk, at home: b's chunk, and where it goes,
        are b's to decide."""
        async def run():
            state = {"t": 100.0}
            cfg = dict(
                root=tmp_path / "cluster", num_shards=4,
                lease_ttl=2.0, heartbeat_interval=0.5, durable=False,
            )
            a, b = (
                ClusterNode(
                    ClusterConfig(node_id=name, endpoint=f"{name}:1", **cfg),
                    clock=ClusterClock(base=lambda: state["t"]),
                )
                for name in "ab"
            )
            # Both nodes live before either claims: the ring splits the shards.
            b.store.publish_node("b", "b:1", state["t"] + 2.0, state["t"])
            a.tick()
            b.tick()
            assert a.held and b.held

            store = shared_store(tmp_path)
            server = make_server(store)
            si = 0
            disks = server.layout[si].disks
            peer_disk = next(d for d in disks if b.owns_disk(d))
            shard = next(j for j, d in enumerate(disks) if a.owns_disk(d))
            own = (disks[shard], ChunkId(si, shard))
            original = store.get(*own)
            store.reset()
            service = make_service(server, tmp_path / "journal", fence=a.check_fence)
            service.quarantine_chunk(own[0], si, shard, source="test")
            server.fail_disk(peer_disk)

            assert await service.repair_chunk(si, shard)
            assert store.write_counts == {own: 1}
            assert (store.get(*own) == original).all()
            assert not service.quarantine
            assert peer_disk in server.layout[si].disks  # b's chunk: untouched
            await service.close()

        asyncio.run(run())
