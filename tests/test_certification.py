"""Certification in hand: what a repair job reads, journals and vouches for.

A repair certifies from what it already verified instead of re-reading
every stripe, and journals no round: one ``stripe_done`` per stripe, naming
the rebuilt chunk (``RepairJob.certify``, ``RepairJob.record_writebacks``).
There is one real-bytes driver, ``RepairService.run_job``; both of its
entry points — ``recover_disk`` (a job planned on the timing plane, run on
a private service) and ``submit_repair`` (planned, claimed and journaled by
the daemon) — are held to the same arithmetic and the same refusals here:

* the exact counts: ``k`` survivor reads per stripe, one ``verify_chunk`` per
  chunk landed, no survivor byte read twice, no ``round_commit`` record and
  no chunk byte in the journal of a file-backed repair;
* one pass per stripe, whatever lost the chunk: a stripe's targets are what
  it has lost when it starts or re-plans, so a pre-quarantined survivor
  costs no extra read, a survivor the job finds corrupt is rewritten by the
  same pass (no read-repair of its own), a disk that fails between two
  stripes joins every stripe that starts after it, and one that fails
  while a read-repair holds a stripe is rebuilt once, after it;
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
from repro.faults.report import REPLANNED
from repro.faults.spec import FaultEvent
from repro.hdss.server import HDSSConfig, HighDensityStorageServer, attach_server
from repro.hdss.store import FileChunkStore, ForwardingChunkStore
from repro.journal.wal import WALReader
from repro.service import RepairService, ServiceConfig
from repro.service import chaos_rig as rig
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


class TestStaggeredFailures:
    """Chaos geometry, one stripe in flight: fail disk 0 and submit its
    repair; once one stripe is done, fail disk 1 and submit. Every stripe
    job 0 starts after that has lost both chunks and rebuilds both in its
    one pass, so only the stripes it had finished stay homed on disk 1."""

    def test_only_stripes_finished_before_the_second_failure_stay_on_it(self, tmp_path):
        store = rig.CountingStore(FileChunkStore(tmp_path / "store", durable=False))
        server = rig.build_server(store)
        store.reset()
        on_0, on_1 = (set(server.layout.stripe_set(d)) for d in (0, 1))

        async def run():
            service = rig.build_service(server, max_concurrent_stripes=1)
            server.fail_disk(0)
            first = service.submit_repair(0)
            while first.job_id not in service._jobs or not service._jobs[first.job_id].stripes_done:
                await asyncio.sleep(0)
            finished = set(service._jobs[first.job_id].stats.loss.stripes)
            server.fail_disk(1)
            second = service.submit_repair(1)
            results = await asyncio.gather(first.wait(), second.wait())
            await service.close()
            return finished, results

        finished, (job0, job1) = asyncio.run(run())
        assert len(finished) == 1
        left = sorted(finished & on_1)
        assert [si for si in range(len(server.layout)) if 1 in server.layout[si].disks] == left
        assert sorted(job0.scrub.degraded) == left and job0.certified == (not left)
        assert job1.certified and job1.stripes == len(on_1 - on_0)
        # every stripe read once, k survivors for all its lost chunks
        assert sum(store.read_counts.values()) == rig.K * len(on_0 | on_1)
        assert store.duplicates() == []


class TestReadRepairHoldsItsStripe:
    @pytest.mark.parametrize("started", [False, True])
    def test_a_disk_failing_meanwhile_is_rebuilt_once(self, tmp_path, started):
        """A read-repair holds stripe 0 when a disk of the stripe it does
        not read fails — before its stripe took its lost set, or after.
        The disk's job waits the read-repair out (it does not skip the
        stripe), then rebuilds whatever is still lost: the dead disk's
        chunk, or nothing when the read-repair already took it. Nothing
        stays homed on the dead disk, and no chunk is written twice."""
        store = rig.CountingStore(FileChunkStore(tmp_path / "store", durable=False))
        server = rig.build_server(store)
        si, shard = 0, 0
        disks = server.layout[si].disks
        dying = disks[-1]  # the read-repair reads shards 1..k
        disk, cid = disks[shard], ChunkId(si, shard)
        original = store.get(disk, cid)
        store.reset()

        async def run():
            service = rig.build_service(server)
            service.quarantine_chunk(disk, si, shard, source="test")
            await service.memory.acquire(rig.MEMORY_CHUNKS)  # parks its round
            read_repair = asyncio.get_running_loop().create_task(
                service.repair_chunk(si, shard)
            )
            while si not in service._read_repairs or (
                started and not service.memory._parked
            ):
                await asyncio.sleep(0)
            server.fail_disk(dying)
            ticket = service.submit_repair(dying)
            for _ in range(20):
                await asyncio.sleep(0)
            assert not service._jobs  # not planned: waiting on stripe 0
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
