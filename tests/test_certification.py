"""Certification in hand: what a repair job reads, journals and vouches for.

A repair certifies from what it already verified instead of re-reading
every stripe, and journals no round: one ``stripe_done`` per stripe, naming
the rebuilt chunk (``RepairJob.certify``, ``RepairJob.record_writebacks``).
There is one real-bytes driver, ``RepairService.run_job``; both of its
entry points — ``recover_disk`` (a job planned on the timing plane, run on
a private service) and ``submit_repair`` (planned and journaled by the
daemon, its stripes queued as passes) — are held to the same arithmetic
and the same refusals here:

* the exact counts: ``k`` survivor reads per stripe, one ``verify_chunk`` per
  chunk landed, no survivor byte read twice, no ``round_commit`` record and
  no chunk byte in the journal of a file-backed repair;
* one pass per stripe, whatever lost the chunk: a stripe's targets are what
  it has lost when it starts or re-plans, so a pre-quarantined survivor
  costs no extra read, a survivor the job finds corrupt is rewritten by the
  same pass (no read-repair of its own), a disk that fails between two
  stripes joins every stripe that starts after it, and one that fails
  while a read-repair's pass runs is rebuilt once, after it;
* one stripe queue for the whole service: a stripe is held only while its
  pass runs, so a later job rebuilds what a stripe lost after an earlier
  job finished it, two jobs never run more passes than the pool, and a
  crashed pass leaves its stripe to the next job's;
* certification still says no: the stripes a disk dying mid-repair finds
  already finished, a rebuilt chunk torn on its spare (fresh or skipped by
  a resume's replay) each certify ``degraded``, and a resumed job never
  vouches for an in-place rewrite that did not land;
* a power cut before the job's one ``store.sync()`` loses every rename
  since the last one: each lost chunk starts fresh, never replayed.

The full-stripe parity proof certification used to re-do per job lives in
``chaos_rig.check_parity_clean`` (every chaos episode, and the 24-seed
properties in ``test_repair_drivers_agree.py``).
"""

import asyncio
import struct
import threading
from collections import Counter

import pytest

from repro.core import ALGORITHMS, ReadPolicy, recover_disk
from repro.core.plans import RepairPlan
from repro.core.repair_job import RepairJob
from repro.ec.stripe import ChunkId
from repro.faults.injector import SimulatedCrash
from repro.errors import StorageError
from repro.faults.report import REPLANNED
from repro.faults.spec import FaultEvent
from repro.hdss.server import HDSSConfig, HighDensityStorageServer, attach_server
from repro.hdss.store import FileChunkStore, ForwardingChunkStore
from repro.journal.wal import WALReader
from repro.service import RepairService, ServiceConfig
from repro.service import chaos_rig as rig
from repro.service.scrub import ScrubConfig, Scrubber
from tests.test_repair_drivers_agree import cut_journal, snapshot

DISK = 3
K = 6
#: The driver's two entry points: ``recover_disk`` and ``submit_repair``.
ENTRY_POINTS = ["recover_disk", "service"]

pytestmark = pytest.mark.usefixtures("fresh_registry")


def build(store):
    """RS(9,6) over 12 disks with ``c = 6``: hd-psr-as plans three rounds
    a stripe, fsr one."""
    server = HighDensityStorageServer(
        HDSSConfig(
            num_disks=12, n=9, k=K, chunk_size=1024, memory_chunks=6,
            spares=3, seed=5, placement="rotating",
        ),
        store=store,
    )
    server.provision_stripes(8, with_data=True)
    return server


def make_server(root, wrap=lambda store: store, backend=None):
    """A provisioned server (file-backed unless given a ``backend``) behind
    a reset ``CountingStore``."""
    backend = backend or FileChunkStore(root / "store", durable=False)
    store = rig.CountingStore(wrap(backend))
    server = build(store)
    store.reset()
    return server, store


def journal_dir(root):
    return root / "journal" / f"disk-{DISK:03d}"


def repair(driver, server, root, algorithm="hd-psr-as", *, resume=False,
           faults=None, policy=None, setup=None, after=None, **config):
    """Repair ``DISK`` through ``driver``, journaled under ``root``.

    Service only: ``setup(service)`` runs before the job is submitted and
    ``await after(service)`` once it finished, before the service closes;
    ``config`` are further :class:`ServiceConfig` fields.
    """
    if driver == "recover_disk":
        return recover_disk(
            server, ALGORITHMS[algorithm](), DISK, journal=journal_dir(root),
            resume=resume, faults=faults, policy=policy,
        )

    async def run():
        service = RepairService(
            server, ALGORITHMS[algorithm](),
            ServiceConfig(
                journal_root=root / "journal", durable_journal=False, policy=policy,
                **config,
            ),
            faults=faults,
        )
        if setup is not None:
            setup(service)
        try:
            result = await service.submit_repair(DISK, resume=resume).wait()
            if after is not None:
                await after(service)
            return result
        finally:
            await service.close()

    return asyncio.run(run())


def truncate(store, disk, cid):
    """Tear one chunk on disk: half its bytes, the trailer cut off."""
    path = store._chunk_path(disk, cid)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


# ------------------------------------------------------------- the arithmetic
class TestExactCounts:
    @pytest.mark.parametrize("algorithm, rounds", [("hd-psr-as", 3), ("fsr", 1)])
    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_each_repaired_byte_is_read_and_hashed_once(
        self, tmp_path, driver, algorithm, rounds
    ):
        server, store = make_server(tmp_path)
        stripes = server.layout.stripe_set(DISK)
        server.fail_disk(DISK)
        result = repair(driver, server, tmp_path, algorithm)
        assert result.certified and result.scrub.clean == sorted(stripes)

        # k survivor reads per stripe, none of them twice ...
        assert sum(store.read_counts.values()) == K * len(stripes)
        assert set(store.read_counts.values()) == {1}
        # ... one verify per chunk landed, and of nothing else: no survivor
        # byte is re-read after the last decode.
        landed = {
            (server.layout[si].disks[shard], ChunkId(si, shard)): 1
            for si in stripes
            for shard in range(server.config.n)
            if server.layout[si].disks[shard] >= server.config.num_disks
        }
        assert len(landed) == len(stripes)
        assert store.write_counts == landed
        assert store.verify_counts == landed
        assert not set(store.read_counts) & set(store.verify_counts)

        # The journal holds no round_commit, however many rounds a stripe
        # takes, and one stripe_done per stripe that carries no chunk byte.
        records = list(WALReader(journal_dir(tmp_path)))
        plan = RepairPlan.from_dict(records[0].meta["plan"])
        assert {sp.num_rounds for sp in plan.stripe_plans} == {rounds}
        types = Counter(r.type for r in records)
        assert types == {"begin": 1, "stripe_done": len(stripes), "complete": 1}
        assert not any(r.blobs for r in records)


# ------------------------------------------ one pass per stripe, whatever lost
def reads_on(store, si):
    return sum(n for (_, cid), n in store.read_counts.items() if cid.stripe_index == si)


def writes_on(store, si):
    return sum(n for (_, cid), n in store.write_counts.items() if cid.stripe_index == si)


class TestOnePassPerStripe:
    def test_a_quarantined_survivor_costs_no_extra_read(self, tmp_path):
        """One chunk on the failed disk, one survivor quarantined before
        the job: the stripe's lost set at start holds both, so it reads
        ``k`` clean survivors once and puts twice — a spare and home."""
        server, store = make_server(tmp_path)
        si, disk, cid, original = TestCertificationStillSaysNo.corrupt_survivor(server, store)
        server.fail_disk(DISK)

        async def lifted(service):
            assert not service.quarantine and service.corrupt_repaired == 1

        result = repair(
            "service", server, tmp_path,
            setup=lambda service: service.quarantine_chunk(
                disk, si, cid.shard_index, source="test"
            ),
            after=lifted,
        )
        assert result.certified
        assert reads_on(store, si) == K
        assert writes_on(store, si) == 2 and store.write_counts[disk, cid] == 1
        assert (server.store.get(disk, cid) == original).all()

    def test_a_survivor_found_corrupt_mid_round_rebuilds_in_the_same_pass(self, tmp_path):
        """The round that finds it quarantines it and spawns nothing: the
        re-plan adds at most ``k - t`` reads, and the job certifies with no
        background task left."""
        server, store = make_server(tmp_path)
        si, disk, cid, _ = TestCertificationStillSaysNo.corrupt_survivor(server, store)
        server.fail_disk(DISK)
        spawned = []

        def record_read_repairs(service):
            async def record(stripe_index, shard_idx):
                spawned.append((stripe_index, shard_idx))
                return False

            service.repair_chunk = record

        async def idle(service):
            assert not service._chunk_repairs
            assert not [
                t for t in asyncio.all_tasks() if t.get_name().startswith("chunk-repair-")
            ]

        result = repair(
            "service", server, tmp_path, policy=ReadPolicy(),
            setup=record_read_repairs, after=idle,
        )
        assert result.certified and not spawned
        assert K < reads_on(store, si) <= K + (K - 1)
        assert writes_on(store, si) == 2 and store.write_counts[disk, cid] == 1


class DiesAfterAPutOn(ForwardingChunkStore):
    """Fails ``dying`` as the first rebuilt chunk of a stripe touching every
    disk of ``trigger`` lands; remembers every stripe landed before."""

    def __init__(self, inner, dying, trigger):
        super().__init__(inner)
        self.dying, self.trigger = dying, set(trigger)
        self.server = None
        self.landed = set()

    def put(self, disk_id, chunk_id, data):
        self.inner.put(disk_id, chunk_id, data)
        if self.server is None or self.server.disk(self.dying).is_failed:
            return  # provisioning, or already dead
        si = chunk_id.stripe_index
        self.landed.add(si)
        if self.trigger <= set(self.server.layout[si].disks):
            self.server.fail_disk(self.dying)


class TestStaggeredFailures:
    """Chaos geometry, one stripe in flight: fail disk 0 and submit its
    repair; disk 1 fails right after the first put on a stripe that touches
    both, and its repair is submitted then. Every stripe job 0 starts after
    that has lost both chunks and rebuilds both in its one pass; job 1 lists
    every stripe disk 1 touches, so the disk-1 chunks of the stripes job 0
    had finished are rebuilt too, and the rest record ``recovered`` with no
    read. Nothing stays homed on either dead disk."""

    def test_every_stripe_either_failure_touches_is_rehomed(self, tmp_path):
        dies = DiesAfterAPutOn(
            FileChunkStore(tmp_path / "store", durable=False), dying=1, trigger=(0, 1)
        )
        store = rig.CountingStore(dies)
        server = rig.build_server(store)
        dies.server = server
        store.reset()
        on_0, on_1 = (set(server.layout.stripe_set(d)) for d in (0, 1))

        async def run():
            service = rig.build_service(server, max_concurrent_stripes=1)
            server.fail_disk(0)
            first = service.submit_repair(0)
            while not server.disk(1).is_failed:
                assert not first.done
                await asyncio.sleep(0)
            finished = set(dies.landed)
            second = service.submit_repair(1)
            results = await asyncio.gather(first.wait(), second.wait())
            await service.close()
            return finished, results

        finished, (job0, job1) = asyncio.run(run())
        again = finished & on_1  # the disk-1 chunks job 1 still owes
        assert again and finished & on_0 == finished
        assert [si for si in range(len(server.layout))
                if {0, 1} & set(server.layout[si].disks)] == []
        assert job1.certified and job1.stripes == len(on_1)
        assert set(job0.scrub.degraded) <= again
        # every stripe read once for all it lost, and the finished ones
        # touching disk 1 once more: k survivors a pass
        assert sum(store.read_counts.values()) == rig.K * (len(on_0 | on_1) + len(again))
        assert store.duplicates() == []


class TestReadRepairHoldsItsStripe:
    @pytest.mark.parametrize("started", [False, True])
    def test_a_disk_failing_meanwhile_is_rebuilt_once(self, tmp_path, started):
        """A read-repair's pass runs on stripe 0 when a disk of the stripe
        it does not read fails — before the pass took its lost set, or
        after. The disk's job runs its other stripes meanwhile; its pass of
        stripe 0 waits for the read-repair's, then rebuilds whatever is
        still lost: the dead disk's chunk, or nothing when the read-repair
        already took it. Nothing stays homed on the dead disk, and no chunk
        is written twice."""
        store = rig.CountingStore(FileChunkStore(tmp_path / "store", durable=False))
        server = rig.build_server(store)
        si, shard = 0, 0
        disks = server.layout[si].disks
        dying = disks[-1]  # the read-repair reads shards 1..k
        disk, cid = disks[shard], ChunkId(si, shard)
        original = store.get(disk, cid)
        stripes = set(server.layout.stripe_set(dying))
        store.reset()

        async def run():
            service = rig.build_service(server)
            cap = service.config.max_concurrent_stripes
            service.quarantine_chunk(disk, si, shard, source="test")
            await service.memory.acquire(rig.MEMORY_CHUNKS)  # parks its round
            read_repair = asyncio.get_running_loop().create_task(
                service.repair_chunk(si, shard)
            )
            while si not in service._running or (
                started and not service.memory._parked
            ):
                assert not read_repair.done()
                await asyncio.sleep(0)
            server.fail_disk(dying)
            ticket = service.submit_repair(dying)
            while len(service._running) < min(cap, len(stripes)):
                assert not ticket.done
                await asyncio.sleep(0)
            job = service._jobs[ticket.job_id]
            assert service._running[si].job is not job  # the read-repair's
            assert [p.si for p in service._queue if p.job is job][:1] == [si]
            assert {p.si for p in service._running.values() if p.job is job} <= stripes - {si}
            service.memory.release(rig.MEMORY_CHUNKS)
            repaired = await read_repair
            result = await ticket.wait()
            assert not service.quarantine
            await service.close()
            return repaired, result

        repaired, result = asyncio.run(run())
        assert repaired and result.certified
        assert si in result.scrub.clean
        assert not [s for s in range(len(server.layout)) if dying in server.layout[s].disks]
        assert store.write_counts[disk, cid] == 1
        assert (store.get(disk, cid) == original).all()
        assert store.duplicates() == []


class CrashOnFirst(ForwardingChunkStore):
    """The first ``op`` of stripe ``si`` — a ``get``, or a ``put`` once it
    landed — blocks until :attr:`go` is set, then raises
    :class:`SimulatedCrash`: a process dying mid-pass, before its reads or
    after its put and before the pass homes the chunk. ``op`` is None
    (nothing armed) while the server is provisioned."""

    def __init__(self, inner, si, op):
        super().__init__(inner)
        self.si, self.op = si, op
        self.entered, self.go = threading.Event(), threading.Event()

    def _crash(self, op, chunk_id):
        if op == self.op and chunk_id.stripe_index == self.si and not self.entered.is_set():
            self.entered.set()
            assert self.go.wait(30)
            raise SimulatedCrash(FaultEvent(at=0.0, kind="process_crash"))

    def get(self, disk_id, chunk_id):
        self._crash("get", chunk_id)
        return self.inner.get(disk_id, chunk_id)

    def put(self, disk_id, chunk_id, data):
        self.inner.put(disk_id, chunk_id, data)
        self._crash("put", chunk_id)


class TearsOnPut(ForwardingChunkStore):
    """Truncates ``victim`` — a ``(disk, chunk)``, or a chunk on any disk —
    the first time it lands."""

    def __init__(self, inner, victim=None):
        super().__init__(inner)
        self.victim = victim

    def put(self, disk_id, chunk_id, data):
        self.inner.put(disk_id, chunk_id, data)
        if self.victim in (chunk_id, (disk_id, chunk_id)):
            self.victim = None
            truncate(self.inner, disk_id, chunk_id)


class TestOneStripeQueue:
    """One queue of stripe passes for the whole service, drained by one
    pool of ``max_concurrent_stripes``: a stripe is held only while its
    pass runs, and one disk has at most one live job."""

    @staticmethod
    def setup(tmp_path, wrap=lambda store: store):
        store = rig.CountingStore(wrap(FileChunkStore(tmp_path / "store", durable=False)))
        server = rig.build_server(store)
        store.reset()
        return server, store

    def test_two_jobs_never_run_more_passes_than_the_pool(self, tmp_path):
        server, store = self.setup(tmp_path)

        async def run():
            service = rig.build_service(server, max_concurrent_stripes=2)
            repair_stripe, active, peak = service._repair_stripe, [0], [0]

            async def counted(*args):
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                try:
                    return await repair_stripe(*args)
                finally:
                    active[0] -= 1

            service._repair_stripe = counted
            server.fail_disk(0)
            server.fail_disk(6)
            tickets = [service.submit_repair(0), service.submit_repair(6)]
            results = await asyncio.gather(*(t.wait() for t in tickets))
            await service.close()
            return results, peak[0]

        results, peak = asyncio.run(run())
        assert peak == 2
        assert all(r.certified for r in results)
        assert store.duplicates() == []

    def test_a_read_repair_of_a_finished_stripe_does_not_wait_out_the_job(self, tmp_path):
        server, store = self.setup(tmp_path)

        async def run():
            service = rig.build_service(server, max_concurrent_stripes=1)
            server.fail_disk(0)
            ticket = service.submit_repair(0)
            while ticket.job_id not in service._jobs or not service._jobs[ticket.job_id].stripes_done:
                assert not ticket.done
                await asyncio.sleep(0)
            job = service._jobs[ticket.job_id]
            si = next(iter(job.stats.loss.stripes))  # the first one finished
            disk = server.layout[si].disks[0]
            service.quarantine_chunk(disk, si, 0, source="test")
            repaired = await service.repair_chunk(si, 0)
            done_then = job.stripes_done
            result = await ticket.wait()
            await service.close()
            return repaired, done_then, result, service

        repaired, done_then, result, service = asyncio.run(run())
        assert repaired and done_then < result.stripes
        assert result.certified and not service.quarantine
        assert store.duplicates() == []

    def test_a_second_job_for_a_disk_with_a_live_one_is_refused(self, tmp_path):
        server, _ = self.setup(tmp_path)

        async def run():
            service = rig.build_service(server)
            server.fail_disk(0)
            first = service.submit_repair(0)
            with pytest.raises(StorageError, match=f"live repair job {first.job_id}"):
                service.submit_repair(0)
            assert (await first.wait()).certified
            await service.close()

        asyncio.run(run())

    def test_a_job_cancelled_before_its_passes_start_leaves_none_behind(self, tmp_path):
        """Cancelled once its passes are queued, before any took a step:
        none stays queued or holds the pool, and the next job runs."""
        server, store = self.setup(tmp_path)

        async def run():
            service = rig.build_service(server, max_concurrent_stripes=1)
            server.fail_disk(0)
            ticket = service.submit_repair(0)
            while not service._running:
                assert not ticket.done
                await asyncio.sleep(0)
            ticket.task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await ticket.wait()
            assert not service._queue and not service._running
            result = await service.submit_repair(0).wait()
            await service.close()
            return result

        assert asyncio.run(run()).certified
        assert store.duplicates() == []

    def test_a_crashed_pass_leaves_its_stripe_to_the_next_job(self, tmp_path):
        """Job 1's pass of stripe ``s`` waits while job 0's runs, with a
        pool slot free; job 0's pass dies of a crash, and job 1 rebuilds
        both lost chunks. Job 0 resumed records ``s`` recovered with no
        read: one ``stripe_done`` per stripe it lists, and no chunk is
        written twice."""
        probe = rig.build_server()
        shared = sorted(set(probe.layout.stripe_set(0)) & set(probe.layout.stripe_set(1)))
        s = shared[0]
        crash = {}
        server, store = self.setup(
            tmp_path, lambda inner: crash.setdefault("store", CrashOnFirst(inner, s, "get"))
        )
        journal_root = tmp_path / "journal"

        async def run():
            service = rig.build_service(
                server, max_concurrent_stripes=2, journal_root=journal_root,
                durable_journal=False,
            )
            server.fail_disk(0)
            server.fail_disk(1)
            first = service.submit_repair(0)
            while not crash["store"].entered.is_set():
                assert not first.done
                await asyncio.sleep(0)
            second = service.submit_repair(1)
            # Everything else drains through the free slot; job 1's pass of
            # s waits in the queue while job 0's pass of s runs.
            while [(p.si, p.job.job_id) for p in service._queue] != [(s, second.job_id)] \
                    or list(service._running) != [s]:
                assert not (first.done or second.done)
                await asyncio.sleep(0)
            assert service._running[s].job.job_id == first.job_id
            crash["store"].go.set()
            with pytest.raises(SimulatedCrash):
                await first.wait()
            result1 = await second.wait()
            store.read_counts.clear()
            resumed = await service.submit_repair(0, resume=True).wait()
            await service.close()
            return result1, resumed

        result1, resumed = asyncio.run(run())
        assert result1.certified and resumed.certified
        assert sum(store.read_counts.values()) == 0  # replayed or recovered
        assert store.duplicates() == []
        records = list(WALReader(tmp_path / "journal" / "disk-000"))
        done = Counter(r.meta["stripe"] for r in records if r.type == "stripe_done")
        assert sorted(done) == sorted(resumed.loss.stripes) and set(done.values()) == {1}
        (last,) = [r for r in records if r.type == "stripe_done" and r.meta["stripe"] == s]
        assert last.meta["outcome"] == "recovered" and not last.meta.get("writebacks")
        assert not [si for si in range(len(server.layout))
                    if {0, 1} & set(server.layout[si].disks)]

    def test_a_chunk_landed_by_a_crashed_pass_is_not_homed_again(self, tmp_path):
        """Job 0 repairs disk 1; its pass of stripe ``s`` dies once its put
        landed on a spare, before the pass homed the chunk. Disk 0 fails
        meanwhile, and job 1's pass of ``s`` rebuilds both chunks, disk 1's
        on another spare. Resumed job 0 finds its journaled chunk on its
        spare but leaves it there: that target was rebuilt since, so the
        stripe keeps job 1's homes and no stripe has two shards on a disk."""
        s = 0
        server, store = self.setup(tmp_path, lambda inner: CrashOnFirst(inner, s, None))
        assert server.layout[s].disks[:2] == (0, 1)  # disk 0's shard places first
        crash = {"store": store.inner}
        crash["store"].op = "put"
        target = server.layout[s].disks.index(1)

        async def run():
            service = rig.build_service(
                server, max_concurrent_stripes=2, journal_root=tmp_path / "journal",
            )
            server.fail_disk(1)
            first = service.submit_repair(1)
            while not crash["store"].entered.is_set():
                assert not first.done
                await asyncio.sleep(0)
            server.fail_disk(0)
            second = service.submit_repair(0)
            while [(p.si, p.job.job_id) for p in service._queue] != [(s, second.job_id)] \
                    or list(service._running) != [s]:
                assert not (first.done or second.done)
                await asyncio.sleep(0)
            crash["store"].go.set()
            with pytest.raises(SimulatedCrash):
                await first.wait()
            result1 = await second.wait()
            store.read_counts.clear()
            resumed = await service.submit_repair(1, resume=True).wait()
            await service.close()
            return result1, resumed

        result1, resumed = asyncio.run(run())
        (spare,) = [sp for si, shard, sp in journaled_writebacks(tmp_path / "journal" / "disk-001")
                    if si == s and shard == target]
        assert store.write_counts[spare, ChunkId(s, target)] == 1  # left where it landed
        assert server.layout[s].disks[target] != spare
        assert result1.certified and resumed.certified
        assert sum(store.read_counts.values()) == 0  # replayed or recovered
        assert store.duplicates() == []
        for si in range(len(server.layout)):
            disks = server.layout[si].disks
            assert len(set(disks)) == len(disks) and not {0, 1} & set(disks)

    def test_a_chunk_torn_by_another_jobs_pass_certifies_for_neither(self, tmp_path):
        """Disks 0 and 1 fail. The first pass of a stripe they share
        rebuilds both chunks, and disk 1's tears on its spare; the other
        job's pass finds nothing lost. Its certify still verifies that
        chunk, so neither job certifies the stripe clean, whichever
        certifies first."""
        server, store = self.setup(tmp_path, TearsOnPut)
        s = sorted(set(server.layout.stripe_set(0)) & set(server.layout.stripe_set(1)))[0]
        store.inner.victim = ChunkId(s, server.layout[s].disks.index(1))

        async def run():
            service = rig.build_service(server, max_concurrent_stripes=1)
            server.fail_disk(0)
            server.fail_disk(1)
            first = service.submit_repair(0)
            while not service._running:
                assert not first.done
                await asyncio.sleep(0)
            second = service.submit_repair(1)
            results = await asyncio.gather(first.wait(), second.wait())
            await service.close()
            return results

        for result in asyncio.run(run()):
            assert result.scrub.degraded == [s] and not result.certified
        assert rig.check_parity_clean(server, [s]) is not None
        assert store.duplicates() == []

    def test_a_rewrite_torn_before_its_job_ends_is_caught_again(self, tmp_path):
        """A quarantined survivor's in-place rewrite tears as it lands, and
        so leaves quarantine. The scrub runs before the job's certify: it
        finds the rewrite corrupt, quarantines it anew and its read-repair
        really rebuilds it — ``k`` more reads and a second put, not a
        repaired count with no read — and the job then certifies."""

        class HoldsTheFirstVerify(TearsOnPut):
            """The first ``verify_chunk`` — the job's certify — waits for
            :attr:`go`."""

            def __init__(self, inner):
                super().__init__(inner)
                self.held, self.go = threading.Event(), threading.Event()

            def verify_chunk(self, disk_id, chunk_id):
                if not self.held.is_set():
                    self.held.set()
                    assert self.go.wait(30)
                return self.inner.verify_chunk(disk_id, chunk_id)

        server, store = make_server(tmp_path, wrap=HoldsTheFirstVerify)
        si = server.layout.stripe_set(DISK)[0]
        shard = next(j for j, d in enumerate(server.layout[si].disks) if d != DISK)
        disk, cid = server.layout[si].disks[shard], ChunkId(si, shard)
        original = store.get(disk, cid)
        store.reset()
        store.inner.victim = (disk, cid)
        server.fail_disk(DISK)

        async def run():
            service = RepairService(
                server, ALGORITHMS["hd-psr-as"](), ServiceConfig(durable_journal=False)
            )
            service.quarantine_chunk(disk, si, shard, source="test")
            ticket = service.submit_repair(DISK)
            while not store.inner.held.is_set():
                assert not ticket.done
                await asyncio.sleep(0)
            assert not service.is_quarantined(disk, cid)  # landed: scrubbed again
            scrub = Scrubber(service, ScrubConfig(interval_ms=0.0, cycle_pause_s=0.0))
            await scrub.run_cycle()
            store.inner.go.set()
            result = await ticket.wait()
            await service.close()
            return scrub, result, service

        scrub, result, service = asyncio.run(run())
        assert (scrub.corrupt_found, scrub.repaired, scrub.repair_failures) == (1, 1, 0)
        assert reads_on(store, si) == 2 * K and store.write_counts[disk, cid] == 2
        assert (store.inner.get(disk, cid) == original).all()
        assert result.certified and not service.quarantine
        assert service.corrupt_found == service.corrupt_repaired == 2


# -------------------------------------------------- certification still says no
class TestCertificationStillSaysNo:
    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_disk_dying_mid_repair_certifies_degraded(self, tmp_path, driver):
        """A disk dying once a stripe it touches has finished: every stripe
        that starts later has lost two chunks and rebuilds both in its one
        pass, so exactly the touched stripes finished by then — homed on
        the dead disk — certify degraded."""
        dying = 7

        class DiesAfterAPut(ForwardingChunkStore):
            """Fails ``dying`` as the first rebuilt chunk of a stripe
            touching it lands; remembers every stripe landed before."""

            server = None
            landed = set()

            def put(self, disk_id, chunk_id, data):
                self.inner.put(disk_id, chunk_id, data)
                if self.server is None or self.server.disk(dying).is_failed:
                    return  # provisioning, or already dead
                self.landed.add(chunk_id.stripe_index)
                if dying in self.server.layout[chunk_id.stripe_index].disks:
                    self.server.fail_disk(dying)

        server, store = make_server(tmp_path, wrap=DiesAfterAPut)
        store.inner.server = server
        stripes = server.layout.stripe_set(DISK)
        touched = sorted(si for si in stripes if dying in server.layout[si].disks)
        assert len(touched) > 1
        server.fail_disk(DISK)
        result = repair(driver, server, tmp_path, max_concurrent_stripes=1)
        finished = sorted(set(touched) & store.inner.landed)
        assert len(finished) == 1 and finished != touched
        assert not result.loss.has_loss
        assert sorted(result.scrub.degraded) == finished
        assert not result.certified
        assert rig.check_parity_clean(server, result.scrub.clean) is None
        assert [si for si in stripes if dying in server.layout[si].disks] == finished

    @staticmethod
    def corrupt_survivor(server, store, last=False):
        """Flip one byte of the first survivor the repair will read (with
        ``last``, of the stripe's last shard, which it does not read)."""
        si = server.layout.stripe_set(DISK)[0]
        stripe = server.layout[si]
        shards = [j for j, d in enumerate(stripe.disks) if d != DISK]
        shard = shards[-1] if last else shards[0]
        disk, cid = stripe.disks[shard], ChunkId(si, shard)
        original = store.get(disk, cid)
        path = store._chunk_path(disk, cid)
        data = bytearray(path.read_bytes())
        data[0] ^= 0x80
        path.write_bytes(bytes(data))
        store.reset()
        return si, disk, cid, original

    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_corrupt_survivor_degrades_until_rewritten(self, tmp_path, driver):
        """A survivor the job finds corrupt is quarantined and joins its
        stripe's targets at the re-plan: the same pass rewrites it at home,
        certify's verify lifts the quarantine, and the job certifies — no
        read-repair of its own is ever spawned."""
        server, store = make_server(tmp_path)
        si, disk, cid, original = self.corrupt_survivor(server, store)
        server.fail_disk(DISK)

        def no_read_repair(service):
            async def refuse(stripe_index, shard_idx):
                raise AssertionError("a repair round spawned a read-repair")

            service.repair_chunk = refuse

        async def rewritten(service):
            assert not service.quarantine and not service._chunk_repairs
            assert service.corrupt_found == service.corrupt_repaired == 1

        result = repair(
            driver, server, tmp_path, policy=ReadPolicy(),
            setup=no_read_repair, after=rewritten,
        )
        assert result.loss.stripes[si] == REPLANNED and result.loss.checksum_failures
        assert result.certified
        assert store.write_counts[disk, cid] == 1
        # The fault-free stripes still verify only what was landed for them.
        clean = set(result.scrub.clean) - {si}
        assert sorted(
            c.stripe_index for _, c in store.verify_counts if c.stripe_index in clean
        ) == sorted(clean)
        assert (server.store.get(disk, cid) == original).all()

        # The same journal resumed: its ``replanned`` outcome is journaled,
        # so the resumed job verifies every shard of that stripe again —
        # and the in-place rewrite once more before replay trusts it.
        server_b = attach_server(server.store, build)
        server_b.fail_disk(DISK, destroy_data=False)
        store.reset()
        again = repair(driver, server_b, tmp_path, resume=True)
        assert again.loss.stripes[si] == REPLANNED
        assert again.loss.resumed_stripes == len(again.loss.stripes)  # all replayed
        assert again.certified
        assert sum(c.stripe_index == si for _, c in store.verify_counts) == server.config.n
        assert store.verify_counts[disk, cid] == 2

    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_rebuilt_chunk_torn_on_its_spare_certifies_degraded(self, tmp_path, driver):
        class TearingStore(ForwardingChunkStore):
            """Truncates one rebuilt chunk right after it lands."""

            victim = None

            def put(self, disk_id, chunk_id, data):
                self.inner.put(disk_id, chunk_id, data)
                if chunk_id == self.victim:
                    truncate(self.inner, disk_id, chunk_id)

        server, store = make_server(tmp_path, wrap=TearingStore)
        si = server.layout.stripe_set(DISK)[2]
        store.inner.victim = ChunkId(si, server.layout[si].disks.index(DISK))
        server.fail_disk(DISK)
        result = repair(driver, server, tmp_path)
        assert not result.loss.has_loss and not result.loss.degraded
        assert result.scrub.degraded == [si]
        assert not result.certified
        assert rig.check_parity_clean(server, result.scrub.clean) is None
        assert rig.check_parity_clean(server, [si]) is not None

    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_replay_skipping_a_torn_chunk_certifies_degraded(self, tmp_path, driver):
        server, store = make_server(tmp_path)
        server.fail_disk(DISK)
        first = repair(driver, server, tmp_path / "full")
        assert first.certified
        # A crash right after the second stripe_done; the durable store
        # keeps what landed, and one of the two replayed chunks is torn.
        cut_journal(journal_dir(tmp_path / "full"), journal_dir(tmp_path / "cut"), 2)
        si, shard, spare = journaled_writebacks(journal_dir(tmp_path / "cut"))[0]
        torn = (spare, ChunkId(si, shard))
        truncate(store.inner, *torn)

        server_b = attach_server(store, build)
        server_b.fail_disk(DISK, destroy_data=False)
        store.reset()
        resumed = repair(driver, server_b, tmp_path / "cut", resume=True)
        assert resumed.loss.resumed_stripes == 2
        assert resumed.loss.replayed_chunks == 0  # present, so replay skipped both
        assert torn not in store.write_counts
        assert resumed.scrub.degraded == [si]
        assert not resumed.certified


class TestInPlaceRewriteResume:
    """A ``stripe_done`` may name a chunk rewritten at home, whose old,
    corrupt file ``contains`` still finds. Replay trusts such a record only
    when the chunk verifies; one whose rewrite never landed is quarantined
    again — the record is the durable trace of a quarantine the crash
    erased — so its stripe starts fresh and rebuilds it."""

    @pytest.mark.parametrize("landed", [True, False])
    def test_resume_never_certifies_over_a_rewrite_that_did_not_land(
        self, tmp_path, landed
    ):
        class CrashAtTheRewrite(ForwardingChunkStore):
            """The process dies at the in-place put, after or before its
            rename; the stripe's spare put came first and landed."""

            victim = None

            def put(self, disk_id, chunk_id, data):
                if (disk_id, chunk_id) != self.victim:
                    return self.inner.put(disk_id, chunk_id, data)
                if landed:
                    self.inner.put(disk_id, chunk_id, data)
                raise SimulatedCrash(FaultEvent(at=0.0, kind="process_crash"))

        server, store = make_server(tmp_path, wrap=CrashAtTheRewrite)
        # The stripe's last shard: no plan survivor, so only the journal
        # can say it was being rewritten.
        si, disk, cid, original = TestCertificationStillSaysNo.corrupt_survivor(
            server, store, last=True
        )
        store.inner.victim = (disk, cid)
        server.fail_disk(DISK)
        with pytest.raises(SimulatedCrash):
            repair(
                "service", server, tmp_path,
                setup=lambda service: service.quarantine_chunk(
                    disk, si, cid.shard_index, source="test"
                ),
            )
        (spare,) = [
            sp for s_, shard, sp in journaled_writebacks(journal_dir(tmp_path))
            if s_ == si and shard != cid.shard_index
        ]
        assert (si, cid.shard_index, disk) in journaled_writebacks(journal_dir(tmp_path))
        assert store.write_counts[spare, ChunkId(si, server.layout[si].disks.index(DISK))]

        # A new process: the quarantine died with the old one.
        store.inner.victim = None
        server_b = attach_server(store, build)
        server_b.fail_disk(DISK, destroy_data=False)
        store.reset()
        resumed = repair("service", server_b, tmp_path, resume=True)
        assert resumed.certified
        assert (store.inner.get(disk, cid) == original).all()
        if landed:  # replayed: verified, never re-read or re-put
            assert reads_on(store, si) == 0 and writes_on(store, si) == 0
        else:  # quarantined again, started fresh, the rewrite a target
            assert reads_on(store, si) == K
            assert store.write_counts[disk, cid] == 1


def journaled_writebacks(journal):
    """``(stripe, shard, spare)`` of every ``stripe_done`` in ``journal``."""
    return [
        (r.meta["stripe"], wb["shard"], wb["spare"])
        for r in WALReader(journal) if r.type == "stripe_done"
        for wb in r.meta["writebacks"]
    ]


# ------------------------------------------- replay only what is really there
def assert_byte_identical(server, originals):
    now = snapshot(server)
    assert all((now[key] == want).all() for key, want in originals.items())


class TestResumeMatrix:
    """{record present, absent} x {chunk on its spare, not}, on a store that
    keeps its chunks and on one that does not, through both entry points: a
    stripe replays only where its record survived *and* every rebuilt chunk
    is on its spare or in the record; anything else is redone from the plan
    with identical bytes."""

    def crashed(self, tmp_path, driver, backend):
        """A full journaled repair, then what a crash left of it: records
        for the first two stripes only; of each pair of stripes (recorded,
        unrecorded) the first kept its rebuilt chunk, the second lost it.
        Returns ``(store, originals, cells)`` with ``cells[name] = (stripe,
        spare, chunk id)``."""
        server, store = make_server(tmp_path, backend=backend)
        originals = snapshot(server)
        store.reset()
        server.fail_disk(DISK)
        assert repair(driver, server, tmp_path / "full").certified
        cut_journal(journal_dir(tmp_path / "full"), journal_dir(tmp_path / "cut"), 2)
        landed = {
            si: (spare, ChunkId(si, shard))
            for si, shard, spare in journaled_writebacks(journal_dir(tmp_path / "full"))
        }
        recorded = [si for si, _, _ in journaled_writebacks(journal_dir(tmp_path / "cut"))]
        unrecorded = [si for si in landed if si not in recorded]
        assert len(recorded) == 2 and len(unrecorded) >= 2
        cells = {
            "record+chunk": recorded[0], "record only": recorded[1],
            "chunk only": unrecorded[0], "neither": unrecorded[1],
        }
        for si in [cells["record only"]] + unrecorded[1:]:
            store.delete(*landed[si])
        return store, originals, {name: (si, *landed[si]) for name, si in cells.items()}

    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_file_store_names_the_chunk(self, tmp_path, driver):
        store, originals, cells = self.crashed(tmp_path, driver, None)
        records = list(WALReader(journal_dir(tmp_path / "cut")))
        assert not any(r.blobs for r in records)  # names, no chunk byte
        server = attach_server(store, build)
        server.fail_disk(DISK, destroy_data=False)
        resumed = repair(driver, server, tmp_path / "cut", resume=True)
        assert resumed.certified
        self.assert_cells(
            store, cells,
            replayed={"record+chunk"},
            # first run + the redo; only where no record vouched for a chunk
            writes={"record+chunk": 1, "record only": 2, "chunk only": 2, "neither": 2},
        )
        assert resumed.loss.resumed_stripes == 1
        assert resumed.loss.replayed_chunks == 0
        assert_byte_identical(server, originals)

    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_memory_store_carries_the_chunk(self, tmp_path, driver):
        from repro.hdss.store import InMemoryChunkStore

        store, originals, cells = self.crashed(tmp_path, driver, InMemoryChunkStore())
        done = [r for r in WALReader(journal_dir(tmp_path / "cut")) if r.type == "stripe_done"]
        assert all(len(r.blobs) == 1 for r in done)
        server = attach_server(store, build)
        server.fail_disk(DISK, destroy_data=False)
        resumed = repair(driver, server, tmp_path / "cut", resume=True)
        assert resumed.certified
        self.assert_cells(
            store, cells,
            replayed={"record+chunk", "record only"},
            writes={"record+chunk": 1, "record only": 2, "chunk only": 2, "neither": 2},
        )
        assert resumed.loss.resumed_stripes == 2
        assert resumed.loss.replayed_chunks == 1  # re-put from the record
        assert_byte_identical(server, originals)

    @staticmethod
    def assert_cells(store, cells, replayed, writes):
        """Survivor reads per stripe over both incarnations: ``K`` for the
        first run, ``K`` more only where the resume redid the stripe."""
        reads = Counter()
        for (_, cid), n in store.read_counts.items():
            reads[cid.stripe_index] += n
        for name, (si, spare, cid) in cells.items():
            assert reads[si] == (K if name in replayed else 2 * K), name
            assert store.write_counts[spare, cid] == writes[name], name
        # no duplicate write where the record survived and the chunk with it
        kept = cells["record+chunk"][1:]
        assert kept not in store.duplicates()

    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_lost_tail_every_stripe_fresh(self, tmp_path, driver):
        """``stripe_done`` is not fsync'd: a machine crash may keep ``begin``
        alone (plus a torn frame). Every stripe is then redone over the
        chunks the store kept — certified, byte-identical."""
        server, store = make_server(tmp_path)
        originals = snapshot(server)
        store.reset()
        stripes = server.layout.stripe_set(DISK)
        server.fail_disk(DISK)
        assert repair(driver, server, tmp_path).certified
        (segment,) = journal_dir(tmp_path).glob("seg-*.wal")
        raw = segment.read_bytes()
        _, hlen, blen, _ = struct.unpack("<4sIII", raw[:16])
        segment.write_bytes(raw[: 16 + hlen + blen + 21])  # begin + a torn frame
        assert [r.type for r in WALReader(journal_dir(tmp_path))] == ["begin"]

        server_b = attach_server(store, build)
        server_b.fail_disk(DISK, destroy_data=False)
        store.reset()
        resumed = repair(driver, server_b, tmp_path, resume=True)
        assert resumed.certified and resumed.loss.resumed_stripes == 0
        assert sum(store.read_counts.values()) == K * len(stripes)
        assert sorted(store.write_counts.values()) == [1] * len(stripes)
        assert_byte_identical(server_b, originals)
        types = Counter(r.type for r in WALReader(journal_dir(tmp_path)))
        assert types == {"begin": 1, "resume": 1, "stripe_done": len(stripes), "complete": 1}


# ------------------------------------------------- a power cut before the sync
class PowerCutStore(ForwardingChunkStore):
    """Reverts every rename not yet covered by :meth:`sync`, on :meth:`cut`.

    Remembers each chunk's bytes (or absence) before its first ``put``
    since the last sync; ``cut`` restores them — the worst a power cut may
    do to a ``put`` whose directory was not yet fsync'd. Armed with
    ``crash_after = N``, the machine dies at the put after the ``N``-th,
    or at the sync once ``N`` puts were made."""

    def __init__(self, inner):
        super().__init__(inner)
        self.crash_after = None
        self.puts = 0
        self.unsynced = {}
        self.lock = threading.Lock()  # the service puts from worker threads

    def _maybe_die(self):
        if self.crash_after is not None and self.puts >= self.crash_after:
            raise SimulatedCrash(FaultEvent(at=0.0, kind="process_crash"))

    def put(self, disk_id, chunk_id, data):
        key = (disk_id, chunk_id)
        with self.lock:
            self._maybe_die()
            self.puts += 1
            if key not in self.unsynced:
                self.unsynced[key] = (
                    self.inner.get(*key) if self.inner.contains(*key) else None
                )
        self.inner.put(disk_id, chunk_id, data)

    def sync(self, disks=()):
        self._maybe_die()
        self.inner.sync(disks)
        self.unsynced.clear()

    def cut(self):
        self.crash_after = None
        for key, before in self.unsynced.items():
            if before is None:
                self.inner.delete(*key)
            else:
                self.inner.put(*key, before)
        self.inner.sync()
        self.unsynced.clear()


class TestPowerCutMatrix:
    """{crash after 0, 1, half, all of the job's puts} x {its stripe_done
    records kept, lost} through both entry points: the cut reverts every rename
    since the last sync, so no rebuilt chunk is left and every stripe —
    record or not — starts fresh, never replayed, and ends certified and
    byte-identical."""

    @pytest.mark.parametrize("records", ["kept", "lost"])
    @pytest.mark.parametrize("when", ["none", "one", "half", "all"])
    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_lost_renames_start_fresh(self, tmp_path, driver, when, records):
        server, store = make_server(
            tmp_path, wrap=lambda backend: PowerCutStore(backend)
        )
        power = store.inner
        originals = snapshot(server)
        stripes = server.layout.stripe_set(DISK)
        power.crash_after = {
            "none": 0, "one": 1, "half": len(stripes) // 2, "all": len(stripes),
        }[when]
        power.puts = 0
        store.reset()
        server.fail_disk(DISK)
        with pytest.raises(SimulatedCrash):
            repair(driver, server, tmp_path / "crash")
        crashed_after = power.crash_after
        assert power.puts == len(power.unsynced) == crashed_after
        power.cut()
        assert not any(store.inner.contains(*key) for key in store.write_counts)

        journal = journal_dir(tmp_path / "crash")
        named = journaled_writebacks(journal)
        assert len(named) >= crashed_after  # record, then put
        if records == "lost":
            cut_journal(journal, journal_dir(tmp_path / "cut"), 0)
            journal = journal_dir(tmp_path / "cut")
        assert [r.type for r in WALReader(journal)][0] == "begin"

        server_b = attach_server(store, build)
        server_b.fail_disk(DISK, destroy_data=False)
        store.reset()
        resumed = repair(driver, server_b, journal.parent.parent, resume=True)
        assert resumed.certified
        assert resumed.loss.resumed_stripes == 0 and resumed.loss.replayed_chunks == 0
        assert sum(store.read_counts.values()) == K * len(stripes)
        assert sorted(store.write_counts.values()) == [1] * len(stripes)
        assert not power.unsynced  # the resumed job synced before complete
        assert_byte_identical(server_b, originals)

    @pytest.mark.parametrize("driver", ENTRY_POINTS)
    def test_a_new_store_syncs_the_spares_it_replays(
        self, tmp_path, driver, monkeypatch
    ):
        """The process dies at its sync with every chunk put and every
        ``stripe_done`` kept; a successor opening a fresh store over the
        same root replays the job with no put of its own, and still fsyncs
        every spare directory before ``complete``: the dead process's
        renames may sit only in the page cache."""
        from repro.hdss import store as store_module
        from repro.journal.journal import RepairJournal

        server, store = make_server(
            tmp_path, wrap=lambda backend: PowerCutStore(backend)
        )
        originals = snapshot(server)
        stripes = server.layout.stripe_set(DISK)
        store.inner.crash_after = len(stripes)
        store.inner.puts = 0
        server.fail_disk(DISK)
        with pytest.raises(SimulatedCrash):
            repair(driver, server, tmp_path)
        spares = {spare for _, _, spare in journaled_writebacks(journal_dir(tmp_path))}
        assert spares

        events = []
        real_fsync_dir, real_complete = store_module.fsync_dir, RepairJournal.complete
        monkeypatch.setattr(
            store_module, "fsync_dir",
            lambda path: (events.append(path.name), real_fsync_dir(path))[1],
        )
        monkeypatch.setattr(
            RepairJournal, "complete",
            lambda self, **kw: (events.append("complete"), real_complete(self, **kw))[1],
        )
        successor = rig.CountingStore(FileChunkStore(tmp_path / "store"))
        server_b = attach_server(successor, build)
        server_b.fail_disk(DISK, destroy_data=False)
        resumed = repair(driver, server_b, tmp_path, resume=True)
        assert resumed.certified and resumed.loss.resumed_stripes == len(stripes)
        assert not successor.write_counts
        assert "complete" in events
        before = set(events[: events.index("complete")])
        assert {f"disk-{spare:03d}" for spare in spares} <= before
        assert_byte_identical(server_b, originals)


# ----------------------------------------------------------- the job, directly
class TestCertifyUnit:
    def test_vetoed_shard_degrades_its_stripe_only(self, tmp_path):
        server, store = make_server(tmp_path)
        stripes = server.layout.stripe_set(DISK)
        server.fail_disk(DISK)
        result = repair("recover_disk", server, tmp_path, "fsr")
        assert result.certified
        job = RepairJob(
            result.outcome.plan, result.outcome.stripe_indices,
            result.outcome.survivor_ids, [DISK], server.config.fingerprint(),
        )
        job.stats.writebacks = list(result.data_path.writebacks)
        veto = (server.layout[stripes[1]].disks[0], ChunkId(stripes[1], 0))
        report = job.certify(server, stripes, lambda d, c: (d, c) == veto)
        assert report.degraded == [stripes[1]]
        assert report.clean == [si for si in stripes if si != stripes[1]]
        assert not report.corrupt and not report.unpopulated
        # every rebuilt chunk re-read intact, the vetoed stripe's included
        assert job.verified == {(si, t) for si, t, _ in job.stats.writebacks}

    def test_a_degraded_stripe_still_vouches_for_its_own_rewrites(self, tmp_path):
        """A disk failing after the repair degrades the stripes it touches,
        not the chunks the job rewrote there: each is verified and joins
        ``verified`` — what the service lifts a quarantine by."""
        server, store = make_server(tmp_path)
        stripes = server.layout.stripe_set(DISK)
        server.fail_disk(DISK)
        result = repair("recover_disk", server, tmp_path, "fsr")
        job = RepairJob(
            result.outcome.plan, result.outcome.stripe_indices,
            result.outcome.survivor_ids, [DISK], server.config.fingerprint(),
        )
        job.stats.writebacks = list(result.data_path.writebacks)
        dying = next(
            d for d in server.layout[stripes[0]].disks
            if d != DISK and d < server.config.num_disks
        )
        server.fail_disk(dying)
        store.reset()
        report = job.certify(server, stripes, lambda d, c: False)
        touched = [si for si in stripes if dying in server.layout[si].disks]
        assert report.degraded == touched and touched
        assert job.verified == {(si, t) for si, t, _ in job.stats.writebacks}
        assert sum(store.verify_counts.values()) == len(stripes)
