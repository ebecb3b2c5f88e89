"""Crash-consistent repair journal: WAL framing, replay, and --resume.

The acceptance scenario from the crash-consistency milestone lives here: a
repair killed mid-run by a scripted ``process_crash`` resumes from its
journal without re-planning or re-reading completed stripes, and the
resumed run's rebuilt bytes are identical to an uninterrupted run's.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import ALGORITHMS, FullStripeRepair, recover_disk, recover_disks
from repro.ec.encoder import RSCode
from repro.ec.partial import PartialDecoder
from repro.ec.stripe import ChunkId
from repro.errors import JournalError
from repro.faults import (
    EXIT_CRASHED,
    FaultEvent,
    FaultSchedule,
    SimulatedCrash,
)
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.journal import RepairJournal, WALReader, WALRecord, WALWriter
from repro.journal.journal import JOURNAL_BYTES, journal_exists, load_state
from repro.journal.wal import list_segments
from repro.obs import MetricsRegistry, use_registry

CHUNK = 2048
#: Seconds one fault-free chunk read takes on the default 180 MB/s profile.
READ_SECONDS = CHUNK / 180e6


def make_server(seed=7, num_disks=14, stripes=25, memory_chunks=12):
    cfg = HDSSConfig(
        num_disks=num_disks, n=9, k=6, chunk_size=CHUNK,
        memory_chunks=memory_chunks, spares=5, seed=seed,
    )
    server = HighDensityStorageServer(cfg)
    server.provision_stripes(stripes, with_data=True)
    return server


def capture_chunks(server):
    out = {}
    for stripe in server.layout:
        for shard, disk in enumerate(stripe.disks):
            out[(stripe.index, shard)] = server.store.get(
                disk, ChunkId(stripe.index, shard)
            ).copy()
    return out


# --------------------------------------------------------------------- WAL
class TestWAL:
    def write(self, root, records, **kw):
        writer = WALWriter(root, **kw)
        for rec in records:
            writer.append(rec)
        writer.commit()
        writer.close()

    def test_roundtrip_meta_and_blobs(self, tmp_path):
        records = [
            WALRecord(type="begin", meta={"algorithm": "fsr", "n": 9}),
            WALRecord(type="round_commit", meta={"stripe": 3},
                      blobs={"acc:6": b"\x01\x02\x03", "acc:8": b""}),
            WALRecord(type="complete", meta={"ok": True}),
        ]
        self.write(tmp_path, records)
        back = list(WALReader(tmp_path))
        assert [r.type for r in back] == ["begin", "round_commit", "complete"]
        assert back[0].meta == {"algorithm": "fsr", "n": 9}
        assert back[1].blobs == {"acc:6": b"\x01\x02\x03", "acc:8": b""}
        assert back[2].meta == {"ok": True}

    def test_torn_tail_is_clipped(self, tmp_path):
        self.write(tmp_path, [
            WALRecord(type="begin", meta={}),
            WALRecord(type="stripe_done", meta={"stripe": 1}),
        ])
        seg = list_segments(tmp_path)[-1]
        # simulate a crash mid-append: half a frame at the end of the log
        with open(seg, "ab") as fh:
            fh.write(b"HDJ1\x10\x00\x00")
        back = list(WALReader(tmp_path))
        assert [r.type for r in back] == ["begin", "stripe_done"]

    def test_corrupt_record_stops_replay(self, tmp_path):
        self.write(tmp_path, [
            WALRecord(type="begin", meta={}),
            WALRecord(type="stripe_done", meta={"stripe": 1}),
            WALRecord(type="complete", meta={}),
        ])
        seg = list_segments(tmp_path)[-1]
        data = bytearray(seg.read_bytes())
        # flip one byte in the middle record's body; its CRC now fails and
        # replay must stop at the last-good prefix rather than guess
        data[len(data) // 2] ^= 0xFF
        seg.write_bytes(bytes(data))
        back = list(WALReader(tmp_path))
        assert len(back) < 3
        assert all(r.type in ("begin", "stripe_done") for r in back)

    def test_segment_rotation(self, tmp_path):
        records = [
            WALRecord(type="phase", meta={"i": i}, blobs={"b": bytes(64)})
            for i in range(10)
        ]
        writer = WALWriter(tmp_path, segment_bytes=128)
        for rec in records:
            writer.append(rec)
            writer.commit()
        writer.close()
        assert len(list_segments(tmp_path)) > 1
        back = list(WALReader(tmp_path))
        assert [r.meta["i"] for r in back] == list(range(10))

    def test_reopen_appends_new_segment(self, tmp_path):
        self.write(tmp_path, [WALRecord(type="begin", meta={})])
        self.write(tmp_path, [WALRecord(type="resume", meta={})])
        assert [r.type for r in WALReader(tmp_path)] == ["begin", "resume"]

    def test_concurrent_appenders_survive_rotation(self, tmp_path):
        """Eight threads append+commit on one writer while segments rotate
        every few records: no thread may flush a handle a rotation closed,
        and every record must replay intact, in each thread's own order."""
        workers, per_worker = 8, 200
        writer = WALWriter(tmp_path, segment_bytes=4096, durable=False)
        errors = []
        barrier = threading.Barrier(workers)

        def work(worker):
            try:
                barrier.wait(timeout=30)
                for seq in range(per_worker):
                    writer.append(WALRecord(
                        type="phase", meta={"w": worker, "seq": seq},
                        blobs={"b": bytes([worker]) * 300},
                    ))
                    writer.commit()
            except Exception as exc:  # reported below, with its type
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        writer.close()
        assert errors == []
        assert len(list_segments(tmp_path)) > 10
        seen = {w: [] for w in range(workers)}
        for rec in WALReader(tmp_path):
            assert rec.blobs["b"] == bytes([rec.meta["w"]]) * 300
            seen[rec.meta["w"]].append(rec.meta["seq"])
        assert seen == {w: list(range(per_worker)) for w in range(workers)}
        assert writer.records_written == writer.commits == workers * per_worker


# -------------------------------------------------- v1 round_commit framing
class TestDecoderState:
    def test_state_survives_json_and_blob_split(self, tmp_path):
        """What ``round_commit`` writes (only the benchmark still does):
        the accumulators as raw blobs, the rest of the snapshot as JSON."""
        code = RSCode(9, 6)
        shards = code.encode(
            np.random.default_rng(3).integers(0, 256, (6, 64), dtype=np.uint8)
        )
        pd = PartialDecoder(code, [0, 1, 2, 3, 4, 5], [6])
        pd.feed({0: shards[0], 1: shards[1], 2: shards[2]})
        snapshot = pd.to_state()

        journal = RepairJournal(tmp_path, durable=False)
        journal.begin(algorithm="fsr", plan={}, stripe_indices=[0],
                      survivor_ids=[[0, 1, 2, 3, 4, 5]], failed_disks=[0],
                      fingerprint={})
        journal.round_commit(0, 0.5, snapshot)
        journal.close()

        acc = snapshot.pop("acc")
        _, record = WALReader(tmp_path)
        assert record.type == "round_commit"
        assert record.blobs == {"acc:6": acc["6"].tobytes()}
        assert record.meta["decoder"] == json.loads(json.dumps(snapshot))


# ------------------------------------------------------------ journal replay
class TestJournalReplay:
    def test_empty_directory_rejected(self, tmp_path):
        assert not journal_exists(tmp_path)
        with pytest.raises(JournalError):
            load_state(tmp_path)

    def test_missing_begin_rejected(self, tmp_path):
        writer = WALWriter(tmp_path, durable=False)
        writer.append(WALRecord(type="stripe_done", meta={"stripe": 0}))
        writer.commit()
        writer.close()
        with pytest.raises(JournalError):
            load_state(tmp_path)

    def test_full_lifecycle_replay(self, tmp_path):
        with RepairJournal(tmp_path, durable=False) as journal:
            journal.begin(
                algorithm="hd-psr-pa", plan={"kind": "x"},
                stripe_indices=[3, 7], survivor_ids=[[0, 1], [2, 3]],
                failed_disks=[0], fingerprint={"n": 9},
            )
            journal.stripe_done(
                3, "recovered", 0.25,
                writebacks=[(6, 12, np.arange(8, dtype=np.uint8))],
            )
            journal.stripe_done(7, "lost", 0.5, writebacks=[(6, 12, None)])
            journal.mark_resume(0.5)
            journal.complete(stripes_repaired=1)
        state = load_state(tmp_path)
        assert state.algorithm == "hd-psr-pa"
        assert state.stripe_indices == [3, 7]
        assert state.survivor_ids == [[0, 1], [2, 3]]
        assert state.resume_count == 1
        assert state.completed
        assert state.clock == 0.5
        assert state.done[3].outcome == "recovered"
        shard, spare, payload = state.done[3].writebacks[0]
        assert (shard, spare) == (6, 12)
        assert np.array_equal(payload, np.arange(8, dtype=np.uint8))
        assert state.done[7].writebacks[0][2] is None

    def test_round_commit_and_phase_records_are_not_replayed(self, tmp_path):
        """A resume reads only the terminal outcomes: a stripe with rounds
        but no ``stripe_done`` starts from its plan. Only the clock counts
        a skipped ``round_commit``."""
        code = RSCode(9, 6)
        pd = PartialDecoder(code, [0, 1, 2, 3, 4, 5], [6], chunk_size=8)
        pd.feed({0: np.zeros(8, dtype=np.uint8)})
        with RepairJournal(tmp_path, durable=False) as journal:
            journal.begin(algorithm="fsr", plan={}, stripe_indices=[0, 1],
                          survivor_ids=[[0], [0]], failed_disks=[0], fingerprint={})
            journal.phase(kind="initial", start=0.0, duration=1.0)
            journal.round_commit(0, 0.1, pd.to_state())
            journal.stripe_done(0, "recovered", 0.2)
            journal.round_commit(1, 0.3, pd.to_state())
        state = load_state(tmp_path)
        assert list(state.done) == [0]
        assert state.clock == 0.3
        assert not hasattr(state, "inflight") and not hasattr(state, "phases")


# ------------------------------------------------------------- crash/resume
class TestCrashResume:
    """Kill a repair mid-run; resume must be byte-identical and cheaper."""

    CRASH = FaultSchedule([
        FaultEvent(at=60 * READ_SECONDS, kind="process_crash"),
    ])

    def baseline(self):
        server = make_server()
        originals = capture_chunks(server)
        server.fail_disk(0)
        result = recover_disk(server, FullStripeRepair(), 0)
        return server, originals, result

    def crash_then_resume(self, tmp_path, faults=CRASH):
        crash_server = make_server()
        crash_server.fail_disk(0)
        with pytest.raises(SimulatedCrash):
            recover_disk(
                crash_server, FullStripeRepair(), 0,
                faults=faults, journal=tmp_path / "journal",
            )
        resume_server = make_server()
        resume_server.fail_disk(0)
        result = recover_disk(
            resume_server, FullStripeRepair(), 0,
            faults=faults, journal=tmp_path / "journal", resume=True,
        )
        return resume_server, result

    def test_crash_leaves_resumable_journal(self, tmp_path):
        server = make_server()
        server.fail_disk(0)
        with pytest.raises(SimulatedCrash):
            recover_disk(server, FullStripeRepair(), 0,
                         faults=self.CRASH, journal=tmp_path / "journal")
        state = load_state(tmp_path / "journal")
        assert not state.completed
        assert state.done  # some stripes finished before the crash
        assert state.fingerprint == server.config.fingerprint()

    def test_resume_is_byte_identical(self, tmp_path):
        base_server, originals, base = self.baseline()
        resumed_server, resumed = self.crash_then_resume(tmp_path)
        assert resumed.certified
        assert sorted(resumed.data_path.writebacks) == sorted(
            base.data_path.writebacks
        )
        for (si, shard, spare) in base.data_path.writebacks:
            rebuilt = resumed_server.store.get(spare, ChunkId(si, shard))
            assert np.array_equal(rebuilt, originals[(si, shard)]), (si, shard)

    def test_resume_skips_completed_stripes(self, tmp_path):
        _, _, base = self.baseline()
        _, resumed = self.crash_then_resume(tmp_path)
        stats = resumed.data_path
        assert stats.resumed_stripes > 0
        assert stats.replayed_chunks > 0
        # replayed stripes re-put journaled payloads: zero survivor re-reads
        assert stats.chunks_read < base.data_path.chunks_read
        assert stats.chunks_read == base.data_path.chunks_read - \
            6 * stats.resumed_stripes

    def test_bytes_counter_is_what_the_segments_hold(self, tmp_path):
        """`hdpsr_journal_bytes_total` counts whole frames (prefix, JSON
        header and blobs), so blob-less begin/complete records count too:
        with nothing pruned it is the size of the journal on disk."""
        server = make_server()
        server.fail_disk(0)
        journal = RepairJournal(tmp_path / "journal")
        with use_registry(MetricsRegistry()) as registry:
            result = recover_disk(server, FullStripeRepair(), 0, journal=journal)
        assert result.certified
        counted = registry.get(JOURNAL_BYTES).value
        on_disk = sum(p.stat().st_size for p in list_segments(tmp_path / "journal"))
        assert counted == on_disk == journal._writer.bytes_written
        payload = sum(
            len(blob) for record in WALReader(tmp_path / "journal")
            for blob in record.blobs.values()
        )
        assert 0 < payload < counted

    def test_resume_of_complete_journal_reads_nothing(self, tmp_path):
        server = make_server()
        server.fail_disk(0)
        done = recover_disk(server, FullStripeRepair(), 0,
                            journal=tmp_path / "journal")
        assert done.certified

        again = make_server()
        again.fail_disk(0)
        result = recover_disk(again, FullStripeRepair(), 0,
                              journal=tmp_path / "journal", resume=True)
        assert result.certified
        assert result.data_path.chunks_read == 0
        assert result.data_path.resumed_stripes == len(
            result.outcome.stripe_indices
        )

    def test_fingerprint_mismatch_refused(self, tmp_path):
        server = make_server()
        server.fail_disk(0)
        with pytest.raises(SimulatedCrash):
            recover_disk(server, FullStripeRepair(), 0,
                         faults=self.CRASH, journal=tmp_path / "journal")
        other = make_server(num_disks=16)
        other.fail_disk(0)
        with pytest.raises(JournalError, match="num_disks"):
            recover_disk(other, FullStripeRepair(), 0,
                         faults=self.CRASH, journal=tmp_path / "journal",
                         resume=True)

    def test_resume_without_journal_rejected(self):
        server = make_server()
        server.fail_disk(0)
        with pytest.raises(JournalError):
            recover_disk(server, FullStripeRepair(), 0, resume=True)

    def test_double_crash_double_resume(self, tmp_path):
        """Each incarnation survives exactly one more scripted crash."""
        faults = FaultSchedule([
            FaultEvent(at=30 * READ_SECONDS, kind="process_crash"),
            FaultEvent(at=60 * READ_SECONDS, kind="process_crash"),
        ])
        for _ in range(2):
            server = make_server()
            server.fail_disk(0)
            with pytest.raises(SimulatedCrash):
                recover_disk(server, FullStripeRepair(), 0, faults=faults,
                             journal=tmp_path / "journal",
                             resume=journal_exists(tmp_path / "journal"))
        assert load_state(tmp_path / "journal").resume_count == 1
        final = make_server()
        final.fail_disk(0)
        result = recover_disk(final, FullStripeRepair(), 0, faults=faults,
                              journal=tmp_path / "journal", resume=True)
        assert result.certified

    def test_multi_disk_crash_resume(self, tmp_path):
        base_server = make_server()
        originals = capture_chunks(base_server)
        base_server.fail_disk(0)
        base_server.fail_disk(1)
        base = recover_disks(base_server, FullStripeRepair(), [0, 1])

        crash_server = make_server()
        crash_server.fail_disk(0)
        crash_server.fail_disk(1)
        with pytest.raises(SimulatedCrash):
            recover_disks(crash_server, FullStripeRepair(), [0, 1],
                          faults=self.CRASH, journal=tmp_path / "journal")
        resume_server = make_server()
        resume_server.fail_disk(0)
        resume_server.fail_disk(1)
        resumed = recover_disks(resume_server, FullStripeRepair(), [0, 1],
                                faults=self.CRASH,
                                journal=tmp_path / "journal", resume=True)
        assert resumed.certified
        assert sorted(resumed.data_path.writebacks) == sorted(
            base.data_path.writebacks
        )
        for (si, shard, spare) in base.data_path.writebacks:
            rebuilt = resume_server.store.get(spare, ChunkId(si, shard))
            assert np.array_equal(rebuilt, originals[(si, shard)]), (si, shard)


class TestMidStripeResume:
    """Crash between rounds of one stripe; resume restarts that stripe.

    Needs a genuinely multi-round plan: hd-psr-as at c=8 splits each
    stripe's k=6 reads into rounds of 2, so a crash can land with a stripe
    partially fed. Rounds are not journaled: the journal holds the finished
    stripes only, and the in-flight one starts from its plan again. So does
    a v1 journal's in-flight stripe, whose ``round_commit`` records a resume
    skips: ``tests/data/parent_journal`` in ``test_repair_job.py``.
    """

    def test_inflight_stripe_restarts_from_its_plan(self, tmp_path):
        crash = FaultSchedule([
            FaultEvent(at=8.5 * READ_SECONDS, kind="process_crash"),
        ])
        base_server = make_server(memory_chunks=8)
        originals = capture_chunks(base_server)
        base_server.fail_disk(0)
        base = recover_disk(base_server, ALGORITHMS["hd-psr-as"](), 0)

        crash_server = make_server(memory_chunks=8)
        crash_server.fail_disk(0)
        with pytest.raises(SimulatedCrash):
            recover_disk(crash_server, ALGORITHMS["hd-psr-as"](), 0,
                         faults=crash, journal=tmp_path / "journal")
        # 8.5 reads in: one stripe (k=6) finished, two reads into the next
        state = load_state(tmp_path / "journal")
        assert len(state.done) == 1
        types = [r.type for r in WALReader(tmp_path / "journal")]
        assert types == ["begin", "stripe_done"]

        resume_server = make_server(memory_chunks=8)
        resume_server.fail_disk(0)
        resumed = recover_disk(resume_server, ALGORITHMS["hd-psr-as"](), 0,
                               faults=crash, journal=tmp_path / "journal",
                               resume=True)
        assert resumed.certified
        # the finished stripe is not read again; the in-flight one is, whole
        k = resume_server.config.k
        assert resumed.data_path.chunks_read == base.data_path.chunks_read - k
        for (si, shard, spare) in base.data_path.writebacks:
            rebuilt = resume_server.store.get(spare, ChunkId(si, shard))
            assert np.array_equal(rebuilt, originals[(si, shard)]), (si, shard)


# --------------------------------------------------------------------- CLI
class TestCLI:
    SERVER_ARGS = [
        "--algorithm", "hd-psr-pa", "--disk", "0", "--num-disks", "14",
        "--disk-size", "256KiB", "--chunk-size", "32KiB",
    ]

    def test_crash_exit_code_then_resume(self, tmp_path, capsys):
        spec = tmp_path / "crash.json"
        spec.write_text(json.dumps(
            {"events": [{"at": 0.007, "kind": "process_crash"}]}
        ))
        argv = ["repair", *self.SERVER_ARGS,
                "--faults", str(spec), "--journal", str(tmp_path / "j")]
        assert cli_main(argv) == EXIT_CRASHED
        err = capsys.readouterr().err
        assert "--resume" in err
        assert cli_main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "certified" in out

    def test_journal_without_faults_runs_hardened(self, tmp_path, capsys):
        argv = ["repair", *self.SERVER_ARGS, "--journal", str(tmp_path / "j")]
        assert cli_main(argv) == 0
        assert journal_exists(tmp_path / "j")
        assert "certified" in capsys.readouterr().out

    def test_resume_without_journal_rejected(self, capsys):
        assert cli_main(["repair", *self.SERVER_ARGS, "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err
