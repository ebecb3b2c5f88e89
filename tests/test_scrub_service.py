"""The online scrub plane: cycles, crash-resumable cursor, overload
pacing, quarantine-and-repair, and the daemon's ``scrub`` verb.

No pytest-asyncio in the toolchain: every test is a sync function driving
its coroutine with ``asyncio.run``.
"""

import asyncio
import io
import threading
import time

import numpy as np
import pytest

from repro.ec.stripe import ChunkId
from repro.errors import ChunkChecksumError, ConfigurationError
from repro.faults import apply_corruption
from repro.faults.spec import FaultEvent
from repro.hdss.store import InMemoryChunkStore, ShardedChunkStore
from repro.journal.wal import (
    WALReader,
    WALRecord,
    WALWriter,
    decode_stream,
    list_segments,
)
from repro.service.scrub import ScrubConfig, Scrubber
from repro.service.chaos_rig import PacedStore, build_server, build_service
from repro.service.client import ServiceClient, ServiceError
from repro.service.netserver import ServiceDaemon
from repro.service.overload import (
    STATE_HEALTHY,
    STATE_SHEDDING,
    OverloadConfig,
    OverloadController,
)
from repro.service.protocol import ERR_CORRUPT
from repro.service.scrub import REC_CYCLE_BEGIN, REC_CYCLE_DONE, REC_DISK_DONE


pytestmark = pytest.mark.usefixtures("fresh_registry")


STRIPES = 10


def make_service(tmp_path, stripes=STRIPES, **cfg):
    store = ShardedChunkStore.from_root(
        tmp_path / "store", num_shards=2, durable=False
    )
    return build_service(
        build_server(store, stripes=stripes, chunk_size=1024), **cfg
    )


def fast_config(**overrides):
    defaults = dict(interval_ms=0.0, cycle_pause_s=0.0, park_poll_s=0.01)
    defaults.update(overrides)
    return ScrubConfig(**defaults)


def corrupt(service, stripe_index, shard_idx, kind="bitrot"):
    """Rot one chunk beneath the checksum layer; returns (disk, pristine)."""
    disk = service.server.layout[stripe_index].disks[shard_idx]
    pristine = service.server.store.get(disk, ChunkId(stripe_index, shard_idx)).copy()
    apply_corruption(
        service.server.store,
        FaultEvent(
            at=0.0, kind=kind, disk=disk, stripe=stripe_index, shard=shard_idx
        ),
    )
    return disk, pristine


def total_chunks(service):
    store = service.server.store
    return sum(
        len(store.chunks_on_disk(d)) for d in range(len(service.server.disks))
    )


def stall_at(scrub, stalled_disk):
    """Make ``scrub``'s walk hang on entering ``stalled_disk`` until the
    returned event is set."""
    real, stall = scrub._scrub_disk, asyncio.Event()

    async def scrub_disk(disk_id):
        if disk_id == stalled_disk:
            await stall.wait()
        await real(disk_id)

    scrub._scrub_disk = scrub_disk
    return stall


async def reached(scrub, disk, timeout=30.0):
    """Wait until ``scrub``'s walk is on ``disk``."""
    deadline = time.monotonic() + timeout
    while scrub.current_disk != disk:
        assert time.monotonic() < deadline, f"scrub never reached disk {disk}"
        await asyncio.sleep(0.001)


def recorded_disks(records, cycle):
    return {
        r.meta["disk"] for r in records
        if r.type == REC_DISK_DONE and r.meta["cycle"] == cycle
    }


# ----------------------------------------------------------------- config
class TestScrubConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScrubConfig(interval_ms=-1.0)
        with pytest.raises(ConfigurationError):
            ScrubConfig(cycle_pause_s=-0.1)
        with pytest.raises(ConfigurationError):
            ScrubConfig(park_poll_s=0.0)


# ----------------------------------------------------------------- cycles
class TestScrubCycle:
    def test_clean_cycle_verifies_every_chunk(self, tmp_path):
        async def run():
            service = make_service(tmp_path)
            scrub = Scrubber(service, fast_config())
            verified = await scrub.run_cycle()
            assert verified == total_chunks(service)
            assert scrub.cycles_completed == 1
            assert scrub.corrupt_found == 0
            assert scrub.last_cycle_seconds is not None
            status = scrub.status()
            assert status.cycle == 2  # next cycle queued up
            assert status.chunks_verified == verified
            assert status.quarantined == 0
            await service.close()

        asyncio.run(run())

    @pytest.mark.parametrize("kind", ["bitrot", "torn_write", "misdirected_write"])
    def test_detects_and_read_repairs(self, tmp_path, kind):
        async def run():
            service = make_service(tmp_path)
            disk, pristine = corrupt(service, 3, 1, kind=kind)
            cid = ChunkId(3, 1)
            scrub = Scrubber(service, fast_config())
            await scrub.run_cycle()
            assert scrub.corrupt_found == 1
            assert scrub.repaired == 1
            assert scrub.repair_failures == 0
            assert not service.is_quarantined(disk, cid)
            # byte-identical replacement whose trailer verifies
            assert service.server.store.verify_chunk(disk, cid)
            assert np.array_equal(service.server.store.get(disk, cid), pristine)
            await service.close()

        asyncio.run(run())

    def test_detection_only_mode_keeps_quarantine(self, tmp_path):
        async def run():
            service = make_service(tmp_path)
            disk, _ = corrupt(service, 2, 0)
            cid = ChunkId(2, 0)
            scrub = Scrubber(service, fast_config(auto_repair=False))
            await scrub.run_cycle()
            assert scrub.corrupt_found == 1
            assert scrub.repaired == 0
            assert service.is_quarantined(disk, cid)
            # the next cycle skips the quarantined chunk instead of
            # re-counting it
            await scrub.run_cycle()
            assert scrub.corrupt_found == 1
            await service.close()

        asyncio.run(run())

    def test_a_read_repair_that_cannot_place_leaves_the_scrub_running(self, tmp_path):
        """A failed disk, no spare left, and a corrupt survivor on one of
        its stripes: the read-repair's stripe job has nowhere to put the
        failed disk's chunk. It fails as a whole — nothing is written, the
        chunk stays quarantined — and the scrub loop keeps running."""
        async def run():
            service = make_service(tmp_path)
            server = service.server
            server.fail_disk(0)
            for spare in server.spare_disk_ids:
                server.fail_disk(spare)
            si = server.layout.stripe_set(0)[0]
            shard = next(j for j, d in enumerate(server.layout[si].disks) if d != 0)
            disk, _ = corrupt(service, si, shard)
            scrub = Scrubber(service, fast_config())
            scrub.start()
            assert await scrub.wait_cycles(2, timeout=10.0)
            assert scrub.running
            assert (scrub.corrupt_found, scrub.repaired, scrub.repair_failures) == (1, 0, 1)
            assert service.is_quarantined(disk, ChunkId(si, shard))
            with pytest.raises(ChunkChecksumError):
                server.store.get(disk, ChunkId(si, shard))
            await scrub.stop()
            await service.close()

        asyncio.run(run())

    def test_failed_disk_is_skipped(self, tmp_path):
        async def run():
            service = make_service(tmp_path)
            full = total_chunks(service)
            on_disk = len(service.server.store.chunks_on_disk(0))
            assert on_disk > 0
            service.server.fail_disk(0)
            scrub = Scrubber(service, fast_config())
            verified = await scrub.run_cycle()
            assert verified == full - on_disk
            await service.close()

        asyncio.run(run())


# ----------------------------------------------------------------- cursor
class TestScrubCursor:
    def test_fresh_journal_starts_at_cycle_one(self, tmp_path):
        service = make_service(tmp_path)
        scrub = Scrubber(
            service,
            fast_config(journal_root=tmp_path / "cursor", durable_journal=False),
        )
        assert scrub.cycle == 1
        assert scrub.resumed_cycles == 0
        assert not scrub._begun

    def test_kill_mid_cycle_resumes_at_first_unfinished_disk(self, tmp_path):
        """The acceptance property: a scrubber killed mid-cycle leaves a
        cursor its successor replays — certified disks are not rescanned."""
        root = tmp_path / "cursor"

        async def run():
            service = make_service(tmp_path)
            full = total_chunks(service)
            a = Scrubber(
                service,
                ScrubConfig(
                    interval_ms=2.0, cycle_pause_s=0.0, park_poll_s=0.01,
                    journal_root=root, durable_journal=False,
                ),
            )
            task = asyncio.get_running_loop().create_task(a.run_cycle())
            deadline = time.monotonic() + 30.0
            while len(a._done_disks) < 3:
                assert time.monotonic() < deadline, "scrub made no progress"
                await asyncio.sleep(0.002)
            # kill: cancel without any graceful cycle-done record
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            await a.stop()
            done = set(a._done_disks)
            assert done and len(done) < len(service.server.disks)

            b = Scrubber(
                service,
                fast_config(journal_root=root, durable_journal=False),
            )
            assert b.cycle == 1
            assert b._begun
            assert b._done_disks == done
            assert b.resumed_cycles == 1
            store = service.server.store
            skipped = sum(len(store.chunks_on_disk(d)) for d in done)
            verified = await b.run_cycle()
            assert verified == full - skipped
            await b.stop()

            # the finished cycle is closed: the next incarnation starts
            # cycle 2 fresh
            c = Scrubber(
                service,
                fast_config(journal_root=root, durable_journal=False),
            )
            assert c.cycle == 2
            assert c.resumed_cycles == 0
            assert not c._begun
            await c.stop()
            await service.close()

        asyncio.run(run())

    def test_cursor_commits_run_off_the_event_loop(self, tmp_path, monkeypatch):
        """One commit a cycle (its ``cycle_done``), in a worker thread; each
        ``disk_done`` is flushed, so a fresh reader sees it as soon as the
        walk has moved past its disk."""
        root = tmp_path / "cursor"
        threads, unread = [], []
        real = WALWriter.commit
        service = make_service(tmp_path)
        disks = len(service.server.disks)
        scrub = Scrubber(service, fast_config(
            journal_root=root, durable_journal=False,
        ))

        def check_recorded(upto):
            missing = set(range(upto)) - recorded_disks(WALReader(root), scrub.cycle)
            unread.extend(sorted(missing))

        def commit(writer):
            threads.append(threading.get_ident())
            check_recorded(disks)  # before the cycle's fsync
            real(writer)

        monkeypatch.setattr(WALWriter, "commit", commit)
        real_scrub_disk = scrub._scrub_disk

        async def scrub_disk(disk_id):
            check_recorded(disk_id)
            await real_scrub_disk(disk_id)

        scrub._scrub_disk = scrub_disk

        async def run():
            for _ in range(2):
                await scrub.run_cycle()
            commits = list(threads)
            await scrub.stop()
            await service.close()
            return threading.get_ident(), commits

        loop_thread, commits = asyncio.run(run())
        assert len(commits) == 2
        assert loop_thread not in commits
        assert unread == []

    def test_power_cut_believes_only_whole_records(self, tmp_path):
        """Cut the cursor of 2½ fsync'd cycles at every byte: the successor
        believes a ``disk_done`` only if its frame is whole, starts no
        cycle past the last whole ``cycle_done``, and its ``run_cycle``
        verifies every chunk on every disk it does not believe."""
        root = tmp_path / "cursor"

        async def write():
            service = make_service(tmp_path / "written")
            a = Scrubber(
                service, fast_config(journal_root=root, durable_journal=True)
            )
            await a.run_cycle()
            await a.run_cycle()
            stall_at(a, 8)
            task = asyncio.get_running_loop().create_task(a.run_cycle())
            await reached(a, 8)
            task.cancel()  # killed half way through cycle 3
            await asyncio.gather(task, return_exceptions=True)
            await a.stop()
            await service.close()

        asyncio.run(write())
        [segment] = list_segments(root)
        log = segment.read_bytes()
        frames = []  # (end offset, record) of every frame
        stream = io.BytesIO(log)
        for record in decode_stream(stream):
            frames.append((stream.tell(), record))
        assert [r.type for _, r in frames].count(REC_CYCLE_DONE) == 2
        assert len(recorded_disks([r for _, r in frames], 3)) == 8

        async def check():
            service = make_service(tmp_path / "checked")
            store = service.server.store
            all_disks = range(len(service.server.disks))
            on_disk = {d: set(store.chunks_on_disk(d)) for d in all_disks}
            verified = set()
            real_verify, real_cached = store.verify_chunk, store.get_cached

            def verify_chunk(disk_id, chunk_id):
                verified.add((disk_id, chunk_id))
                return real_verify(disk_id, chunk_id)

            def get_cached(disk_id, chunk_id):
                # a cached chunk is verified on the loop, with no verify_chunk
                payload = real_cached(disk_id, chunk_id)
                if payload is not None:
                    verified.add((disk_id, chunk_id))
                return payload

            store.verify_chunk = verify_chunk
            store.get_cached = get_cached
            cut = tmp_path / "cut"
            cycled = set()
            for length in range(len(log) + 1):
                for old in list_segments(cut) if cut.exists() else []:
                    old.unlink()
                cut.mkdir(exist_ok=True)
                (cut / segment.name).write_bytes(log[:length])
                whole = [r for end, r in frames if end <= length]
                closed = max(
                    (r.meta["cycle"] for r in whole if r.type == REC_CYCLE_DONE),
                    default=0,
                )
                b = Scrubber(
                    service, fast_config(journal_root=cut, durable_journal=False)
                )
                assert b.cycle == closed + 1, length
                assert b._done_disks == recorded_disks(whole, b.cycle), length
                # replay state is all run_cycle depends on: run each once
                state = (b.cycle, frozenset(b._done_disks))
                if state not in cycled:
                    cycled.add(state)
                    verified.clear()
                    await b.run_cycle()
                    owed = {
                        (d, cid) for d in all_disks if d not in state[1]
                        for cid in on_disk[d]
                    }
                    assert owed <= verified, length
                await b.stop()
            await service.close()
            return cycled

        cycled = asyncio.run(check())
        # every cut point of cycle 3's half: begin lost, then 0..8 disks
        assert {(3, n) for n in range(9)} <= {
            (c, len(d)) for c, d in cycled
        }

    def test_stop_waits_out_an_in_flight_commit(self, tmp_path, monkeypatch):
        committing = threading.Event()
        closed_mid_commit = []
        real_commit, real_close = WALWriter.commit, WALWriter.close

        def commit(writer):
            committing.set()
            time.sleep(0.05)
            real_commit(writer)
            committing.clear()

        def close(writer):
            closed_mid_commit.append(committing.is_set())
            real_close(writer)

        monkeypatch.setattr(WALWriter, "commit", commit)
        monkeypatch.setattr(WALWriter, "close", close)

        async def run():
            service = make_service(tmp_path)
            scrub = Scrubber(service, fast_config(
                journal_root=tmp_path / "cursor", durable_journal=False,
            ))
            scrub.start()
            while not committing.is_set():
                await asyncio.sleep(0.001)
            await scrub.stop()
            await service.close()

        asyncio.run(run())
        assert closed_mid_commit[0] is False

    def test_journal_pruned_to_newest_segment(self, tmp_path):
        root = tmp_path / "cursor"

        async def run():
            service = make_service(tmp_path)
            scrub = Scrubber(
                service, fast_config(journal_root=root, durable_journal=False)
            )
            for _ in range(3):
                await scrub.run_cycle()
            await scrub.stop()
            assert len(list_segments(root)) <= 1
            await service.close()

        asyncio.run(run())


# -------------------------------------------------------------------- eta
class TestScrubEta:
    def test_a_resumed_cycle_extrapolates_from_its_own_disks(self, tmp_path):
        """Resumed with 8 of 15 disks done, the ETA divides this
        incarnation's elapsed time by the disks *it* finished — not by the
        predecessor's too."""
        root = tmp_path / "cursor"
        with WALWriter(root, durable=False) as writer:
            writer.append(WALRecord(type=REC_CYCLE_BEGIN, meta={"cycle": 1}))
            for disk in range(8):
                writer.append(WALRecord(
                    type=REC_DISK_DONE, meta={"cycle": 1, "disk": disk},
                ))

        async def run():
            service = make_service(tmp_path)
            scrub = Scrubber(
                service, fast_config(journal_root=root, durable_journal=False)
            )
            assert len(scrub._done_disks) == 8 and scrub.resumed_cycles == 1
            stall = stall_at(scrub, 9)
            task = asyncio.get_running_loop().create_task(scrub.run_cycle())
            await reached(scrub, 9)
            # this incarnation finished one disk (8) in 10 s
            scrub._cycle_started = time.monotonic() - 10.0
            status = scrub.status()
            stall.set()
            await task
            after = scrub.status()
            await scrub.stop()
            await service.close()
            return status, after

        status, after = asyncio.run(run())
        assert (status.disks_total, status.disks_done) == (15, 9)
        assert status.eta_seconds == pytest.approx(10.0 * 6, rel=0.05)
        assert after.eta_seconds is None


# ----------------------------------------------------------------- pacing
class TestScrubPacing:
    def test_parks_while_shedding_and_resumes_after_recovery(self, tmp_path):
        """The controller runs on a clock of the test's own, so its state
        changes when the test moves that clock, not as real time passes."""
        now = [100.0]

        async def run():
            service = make_service(tmp_path)
            ctrl = OverloadController(
                OverloadConfig(
                    target_ms=5.0, shed_target_ms=30.0, interval_ms=20.0,
                    recovery_intervals=1, idle_reset_s=0.3,
                ),
                clock=lambda: now[0],
            )
            service.overload = service.gate.controller = ctrl
            ctrl.observe_wait(0, 0.2)
            now[0] += 0.03
            ctrl.observe_wait(0, 0.2)  # rollover: min 200 ms >> shed target
            assert ctrl.state == STATE_SHEDDING

            scrub = Scrubber(
                service, fast_config(interval_ms=1.0, cycle_pause_s=0.01)
            )
            scrub.start()
            deadline = time.monotonic() + 10.0
            # held in shedding: five parked polls, zero verifies
            while ctrl.scrub_paced < 5 and time.monotonic() < deadline:
                await asyncio.sleep(0.001)
            assert scrub.parked and ctrl.scrub_paced >= 5
            assert scrub.chunks_verified == 0

            # no wait for longer than idle_reset_s: idle expiry recovers
            # the controller and the parked scrubber completes a full cycle
            now[0] += 0.31
            assert await scrub.wait_cycles(1, timeout=30.0)
            assert ctrl.state == STATE_HEALTHY
            assert not scrub.parked
            await scrub.stop()
            await service.close()

        asyncio.run(run())


class RottenStore(PacedStore):
    """A 5 ms-a-read store with one chunk that fails its verify until it
    is rewritten. Every read of that chunk's disk logs what the scrubber
    had caught and repaired by then."""

    def __init__(self, disk, cid):
        super().__init__(InMemoryChunkStore(), latency_s=0.005)
        self.disk, self.cid, self.rotten = disk, cid, True
        self.scrub = None
        self.log = []

    def get(self, disk_id, chunk_id):
        data = super().get(disk_id, chunk_id)
        if disk_id == self.disk:
            self.log.append(
                (chunk_id, self.scrub.corrupt_found, self.scrub.repaired)
            )
            if chunk_id == self.cid and self.rotten:
                raise ChunkChecksumError(f"chunk {chunk_id} rotted")
        return data

    def put(self, disk_id, chunk_id, data):
        if (disk_id, chunk_id) == (self.disk, self.cid):
            self.rotten = False
        super().put(disk_id, chunk_id, data)


class TestScrubRuns:
    """Unpaced, a disk is verified in one run under one gate slot, cut
    short by a queued read and by a corrupt chunk (5 ms a verify, ten
    chunks a disk)."""

    STRIPES = 24

    def test_a_queued_read_is_admitted_after_at_most_one_more_verify(self):
        async def run():
            store = PacedStore(InMemoryChunkStore(), latency_s=0.005)
            service = build_service(
                build_server(store, stripes=self.STRIPES), per_disk_reads=1
            )
            scrub = Scrubber(service, fast_config())
            task = asyncio.get_running_loop().create_task(scrub.run_cycle())
            deadline = time.monotonic() + 30.0
            while store.reads < 2:  # two verifies into disk 0's run
                assert time.monotonic() < deadline, "scrub made no progress"
                await asyncio.sleep(0.001)
            assert scrub.current_disk == 0
            assert service.gate.depths()[0]["inflight"] == 1  # the run's slot
            before = store.reads
            async with service.gate.read(0, foreground=True):
                admitted = store.reads
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            await scrub.stop()
            await service.close()
            return len(store.chunks_on_disk(0)), before, admitted

        per_disk, before, admitted = asyncio.run(run())
        assert per_disk - before >= 5  # a run left to finish would hog it
        assert admitted - before <= 1

    def test_a_corrupt_chunk_is_quarantined_before_the_next_verify(self):
        async def run():
            server = build_server(RottenStore(0, None), stripes=self.STRIPES)
            store = server.store
            chunks = store.chunks_on_disk(0)
            store.cid = chunks[len(chunks) // 2]  # mid-disk
            service = build_service(server)
            scrub = store.scrub = Scrubber(service, fast_config())
            await scrub.run_cycle()
            await service.close()
            return store.cid, store.log, scrub

        cid, log, scrub = asyncio.run(run())
        assert scrub.corrupt_found == 1 and scrub.repaired == 1
        rotted = [i for i, (c, _, _) in enumerate(log) if c == cid][0]
        after = [row for row in log[rotted:] if row[0] != cid][0]
        # the disk's next verify ran after the quarantine and read-repair
        assert after[0] > cid and after[1:] == (1, 1)


class TestScrubLoopRuns:
    """Over file shards in the page cache a run verifies on the event
    loop, one ``get_cached`` and one loop step a chunk. It keeps the
    worker run's manners: it yields its disk to a queued read, stops at a
    corrupt chunk, and lets other tasks run between verifies (ten chunks
    a disk)."""

    STRIPES = 24

    @staticmethod
    def spy(service, scrub):
        """Log every chunk verify as ``(disk, chunk, path, corrupt_found,
        repaired)``: ``loop`` for a ``get_cached`` that answered, ``worker``
        for a ``verify_chunk``."""
        store, log = service.server.store, []
        real_cached, real_verify = store.get_cached, store.verify_chunk

        def get_cached(disk_id, cid):
            payload = real_cached(disk_id, cid)
            if payload is not None:
                log.append((disk_id, cid, "loop", scrub.corrupt_found, scrub.repaired))
            return payload

        def verify_chunk(disk_id, cid):
            log.append((disk_id, cid, "worker", scrub.corrupt_found, scrub.repaired))
            return real_verify(disk_id, cid)

        store.get_cached, store.verify_chunk = get_cached, verify_chunk
        return log

    def test_a_queued_read_is_admitted_after_at_most_one_more_verify(self, tmp_path):
        async def run():
            service = make_service(tmp_path, stripes=self.STRIPES, per_disk_reads=1)
            scrub = Scrubber(service, fast_config())
            log = self.spy(service, scrub)
            task = asyncio.get_running_loop().create_task(scrub.run_cycle())
            deadline = time.monotonic() + 30.0
            while len(log) < 2:  # two verifies into the first disk's run
                assert time.monotonic() < deadline, "scrub made no progress"
                await asyncio.sleep(0)
            disk = scrub.current_disk
            assert [(d, path) for d, _, path, _, _ in log] == [(disk, "loop")] * 2
            assert service.gate.depths()[disk]["inflight"] == 1  # the run's slot
            before = len(log)
            async with service.gate.read(disk, foreground=True):
                admitted = len(log)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            await scrub.stop()
            await service.close()
            return len(service.server.store.chunks_on_disk(disk)), before, admitted

        per_disk, before, admitted = asyncio.run(run())
        assert per_disk - before >= 5  # a run left to finish would hog it
        assert admitted - before <= 1

    def test_a_corrupt_chunk_is_quarantined_before_the_next_verify(self, tmp_path):
        async def run():
            service = make_service(tmp_path, stripes=self.STRIPES)
            store = service.server.store
            chunks = store.chunks_on_disk(0)
            cid = chunks[len(chunks) // 2]  # mid-disk
            corrupt(service, cid.stripe_index, cid.shard_index)
            failures = store.checksum_failures
            scrub = Scrubber(service, fast_config())
            log = self.spy(service, scrub)
            await scrub.run_cycle()
            await service.close()
            return cid, [row for row in log if row[0] == 0], scrub, (
                store.checksum_failures - failures
            )

        cid, log, scrub, failures = asyncio.run(run())
        assert scrub.corrupt_found == 1 and scrub.repaired == 1
        assert failures == 1  # the worker's verify, not the loop's try
        rotted = [i for i, row in enumerate(log) if row[1] == cid][0]
        assert {row[2] for row in log[:rotted]} == {"loop"}
        assert log[rotted][2:] == ("worker", 0, 0)
        after = [row for row in log[rotted:] if row[1] != cid][0]
        # the disk's next verify ran on the loop, after the quarantine
        # and the read-repair
        assert after[1] > cid and after[2:] == ("loop", 1, 1)

    def test_a_task_scheduled_mid_run_runs_before_the_next_verify(self, tmp_path):
        async def run():
            service = make_service(tmp_path, stripes=self.STRIPES)
            scrub = Scrubber(service, fast_config())
            log = self.spy(service, scrub)
            store, seen = service.server.store, []
            spied = store.get_cached

            async def probe():
                seen.append(len(log))

            def get_cached(disk_id, cid):
                payload = spied(disk_id, cid)
                if len(log) == 1 and not seen:
                    asyncio.get_running_loop().create_task(probe())
                return payload

            store.get_cached = get_cached
            await scrub.run_cycle()
            await service.close()
            return log, seen

        log, seen = asyncio.run(run())
        first = log[0][0]
        assert sum(1 for row in log if row[0] == first) >= 5  # a run of many
        assert {row[2] for row in log} == {"loop"}
        assert seen == [1]


# ------------------------------------------------------------ daemon verb
class TestScrubVerb:
    def test_scrub_op_reports_cursor_and_counts(self, tmp_path):
        async def run():
            service = make_service(tmp_path)
            corrupt(service, 1, 2)
            scrub = Scrubber(service, fast_config(cycle_pause_s=0.05))
            daemon = ServiceDaemon(service, scrubber=scrub)
            port = await daemon.start()
            task = asyncio.create_task(daemon.serve_until_stopped())
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                assert await scrub.wait_cycles(1, timeout=30.0)
                reply = await client.scrub()
                assert reply["enabled"] is True
                assert reply["cycles_completed"] >= 1
                assert reply["corrupt_found"] == 1
                assert reply["repaired"] == 1
                stats = await client.call("stats")
                assert stats["scrub"]["chunks_verified"] > 0
                assert stats["corruption"]["found"] >= 1
                assert "swept_tmp_files" in stats["store"]
            finally:
                await client.call("shutdown")
                await client.close()
                await task

        asyncio.run(run())

    def test_scrub_op_without_scrubber(self, tmp_path):
        async def run():
            service = make_service(tmp_path)
            daemon = ServiceDaemon(service)
            port = await daemon.start()
            task = asyncio.create_task(daemon.serve_until_stopped())
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                reply = await client.scrub()
                assert reply["enabled"] is False
            finally:
                await client.call("shutdown")
                await client.close()
                await task

        asyncio.run(run())

    def test_corrupt_survivor_maps_to_retryable_wire_error(self, tmp_path):
        """A degraded decode that trips over a rotted survivor surfaces
        the v5 ``corrupt_chunk`` taxonomy entry — never silent bytes."""

        async def run():
            service = make_service(tmp_path)
            layout = service.server.layout
            failed_disk = layout[0].disks[0]
            stripe_index = layout.stripe_set(failed_disk)[0]
            stripe = layout[stripe_index]
            target = stripe.shard_on_disk(failed_disk)
            pristine = service.server.store.get(
                failed_disk, ChunkId(stripe_index, target)
            ).copy()
            service.server.fail_disk(failed_disk)
            survivors = [s for s in stripe.surviving_shards([failed_disk])
                         if s != target]
            bad = survivors[0]
            corrupt(service, stripe_index, bad)

            daemon = ServiceDaemon(service)
            port = await daemon.start()
            task = asyncio.create_task(daemon.serve_until_stopped())
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                with pytest.raises(ServiceError) as err:
                    await client.read_chunk(stripe_index, target)
                assert err.value.code == ERR_CORRUPT
                assert err.value.retryable
                assert err.value.reply["stripe"] == stripe_index
                assert err.value.reply["shard"] == bad
                # the rotted survivor is quarantined; the retry plans
                # around it and serves the true bytes
                data = await client.read_chunk(stripe_index, target)
                assert data == pristine.tobytes()
                assert service.corrupt_found == 1
            finally:
                await client.call("shutdown")
                await client.close()
                await task
            await service.close()

        asyncio.run(run())
