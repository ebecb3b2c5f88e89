"""Chunk stores: in-memory and file-backed backends, identical contract."""

import hashlib
import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.stripe import ChunkId
from repro.errors import (
    ChunkChecksumError,
    ChunkNotFoundError,
    ConfigurationError,
    LatentSectorError,
    StorageError,
)
from repro.hdss.store import (
    TRAILER_SIZE,
    FaultyChunkStore,
    FileChunkStore,
    ForwardingChunkStore,
    InMemoryChunkStore,
    ShardedChunkStore,
)
from repro.utils.checksum import crc32c


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryChunkStore()
    return FileChunkStore(tmp_path / "chunks")


def chunk(size=64, fill=7):
    return np.full(size, fill, dtype=np.uint8)


def dead_pid():
    """A pid guaranteed not to belong to a live process: spawn-and-reap."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout.strip())


class TestContract:
    def test_put_get_roundtrip(self, store):
        cid = ChunkId(3, 1)
        store.put(0, cid, chunk(fill=9))
        out = store.get(0, cid)
        assert np.array_equal(out, chunk(fill=9))

    def test_get_missing_raises(self, store):
        with pytest.raises(ChunkNotFoundError):
            store.get(0, ChunkId(0, 0))

    def test_contains(self, store):
        cid = ChunkId(1, 2)
        assert not store.contains(5, cid)
        store.put(5, cid, chunk())
        assert store.contains(5, cid)
        assert (5, cid) in store

    def test_overwrite(self, store):
        cid = ChunkId(0, 0)
        store.put(0, cid, chunk(fill=1))
        store.put(0, cid, chunk(fill=2))
        assert store.get(0, cid)[0] == 2

    def test_delete(self, store):
        cid = ChunkId(0, 0)
        store.put(0, cid, chunk())
        store.delete(0, cid)
        assert not store.contains(0, cid)

    def test_delete_missing_raises(self, store):
        with pytest.raises(ChunkNotFoundError):
            store.delete(0, ChunkId(9, 9))

    def test_chunks_on_disk_sorted(self, store):
        ids = [ChunkId(2, 0), ChunkId(0, 1), ChunkId(0, 0)]
        for cid in ids:
            store.put(1, cid, chunk())
        assert store.chunks_on_disk(1) == sorted(ids)
        assert store.chunks_on_disk(99) == []

    def test_drop_disk(self, store):
        for j in range(4):
            store.put(2, ChunkId(0, j), chunk())
        store.put(3, ChunkId(0, 0), chunk())
        assert store.drop_disk(2) == 4
        assert store.chunks_on_disk(2) == []
        assert store.contains(3, ChunkId(0, 0))
        assert store.drop_disk(2) == 0

    def test_same_chunk_different_disks(self, store):
        cid = ChunkId(0, 0)
        store.put(0, cid, chunk(fill=1))
        store.put(1, cid, chunk(fill=2))
        assert store.get(0, cid)[0] == 1
        assert store.get(1, cid)[0] == 2

    def test_2d_rejected(self, store):
        with pytest.raises(StorageError):
            store.put(0, ChunkId(0, 0), np.zeros((2, 2), dtype=np.uint8))

    def test_get_returns_copy(self, store):
        cid = ChunkId(0, 0)
        store.put(0, cid, chunk(fill=5))
        out = store.get(0, cid)
        out[0] = 99
        assert store.get(0, cid)[0] == 5


class TestInMemorySpecific:
    def test_total_chunks(self):
        store = InMemoryChunkStore()
        store.put(0, ChunkId(0, 0), chunk())
        store.put(1, ChunkId(0, 1), chunk())
        assert store.total_chunks() == 2

    def test_iter_all(self):
        store = InMemoryChunkStore()
        store.put(0, ChunkId(0, 0), chunk())
        store.put(1, ChunkId(1, 0), chunk())
        listed = [(d, c) for d in (0, 1) for c in store.chunks_on_disk(d)]
        assert listed == [(0, ChunkId(0, 0)), (1, ChunkId(1, 0))]

    def test_put_copies(self):
        store = InMemoryChunkStore()
        buf = chunk(fill=1)
        store.put(0, ChunkId(0, 0), buf)
        buf[0] = 42
        assert store.get(0, ChunkId(0, 0))[0] == 1


class TestPacedStore:
    """The one device model that sleeps, decided on the durations it asks
    to sleep — never on how long the sleeps took."""

    @pytest.fixture
    def slept(self, monkeypatch):
        from repro.service import chaos_rig

        durations = []
        monkeypatch.setattr(chaos_rig.time, "sleep", durations.append)
        return durations

    @staticmethod
    def paced(**pacing):
        from repro.service.chaos_rig import PacedStore

        inner = InMemoryChunkStore()
        for disk in (0, 1):
            inner.put(disk, ChunkId(0, disk), chunk(size=1000))
        return PacedStore(inner, **pacing)

    def test_a_read_pays_latency_plus_its_bytes_at_the_disk_s_rate(self, slept):
        store = self.paced(latency_s=0.002, rates={0: 250_000.0})
        assert store.get(0, ChunkId(0, 0)).size == 1000
        store.get(1, ChunkId(0, 1))  # disk 1 has no rate: latency only
        assert slept == [pytest.approx(0.002 + 1000 / 250_000.0), 0.002]
        assert store.reads == 2

    def test_a_verify_is_one_paced_read(self, slept):
        store = self.paced(rates={0: 1e6})
        assert store.verify_chunk(0, ChunkId(0, 0))
        assert slept == [pytest.approx(1000 / 1e6)] and store.reads == 1

    def test_a_rate_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                self.paced(rates={0: bad})


class TestForwardingDecorators:
    def test_everything_reaches_the_inner_store(self, store):
        wrapped = ForwardingChunkStore(store)
        cid = ChunkId(0, 1)
        wrapped.put(2, cid, chunk())
        wrapped.put(2, ChunkId(0, 2), chunk(fill=9))
        assert store.contains(2, cid) and (2, cid) in wrapped
        assert wrapped.is_readable(2, cid) and wrapped.verify_chunk(2, cid)
        got = [wrapped.get(2, ChunkId(0, 2)), wrapped.get(2, cid)]
        assert [int(g[0]) for g in got] == [9, 7]
        assert wrapped.chunks_on_disk(2) == [cid, ChunkId(0, 2)]
        wrapped.delete(2, cid)
        assert wrapped.drop_disk(2) == 1 and not store.contains(2, cid)

    def test_backend_extras_pass_through(self):
        inner = InMemoryChunkStore()
        inner.put(0, ChunkId(0, 0), chunk())
        assert ForwardingChunkStore(inner).total_chunks() == 1
        with pytest.raises(AttributeError):
            ForwardingChunkStore(inner).no_such_extra

    def test_reads_overlap_is_forwarded_and_any_shard_decides(self, store):
        from repro.service.chaos_rig import CountingStore, PacedStore

        for paced in (
            PacedStore(InMemoryChunkStore(), latency_s=0.0),
            PacedStore(InMemoryChunkStore(), rates={0: 1e6}),
        ):
            assert paced.reads_overlap and not store.reads_overlap
            for decorator in (ForwardingChunkStore, FaultyChunkStore, CountingStore):
                assert decorator(paced).reads_overlap
                assert not decorator(store).reads_overlap
            assert ShardedChunkStore([store, CountingStore(paced)]).reads_overlap
        assert not ShardedChunkStore([store, InMemoryChunkStore()]).reads_overlap

    def test_a_rewrite_remaps_a_marked_sector(self):
        faulty = FaultyChunkStore(InMemoryChunkStore())
        cid = ChunkId(3, 0)
        faulty.put(1, cid, chunk())
        faulty.mark_bad(1, cid)
        assert not faulty.is_readable(1, cid) and faulty.contains(1, cid)
        with pytest.raises(LatentSectorError):
            faulty.get(1, cid)
        with pytest.raises(LatentSectorError):
            faulty.verify_chunk(1, cid)
        faulty.put(1, cid, chunk(fill=5))  # a rewrite remaps the sector
        assert faulty.bad_chunks() == [] and int(faulty.get(1, cid)[0]) == 5


class _RacingStore(FileChunkStore):
    """A store whose chunk file is deleted once its name is known and
    before it is opened — ``drop_disk``/``delete`` racing a ``get``."""

    def _chunk_name(self, disk_id, chunk_id):
        name = super()._chunk_name(disk_id, chunk_id)
        Path(name).unlink(missing_ok=True)
        return name


class TestFileSpecific:
    def test_chunk_deleted_under_a_read_is_not_found(self, tmp_path):
        FileChunkStore(tmp_path).put(0, ChunkId(0, 0), chunk())
        with pytest.raises(ChunkNotFoundError):
            _RacingStore(tmp_path).get(0, ChunkId(0, 0))
        FileChunkStore(tmp_path).put(0, ChunkId(0, 0), chunk())
        with pytest.raises(ChunkNotFoundError):
            _RacingStore(tmp_path).verify_chunk(0, ChunkId(0, 0))

    def test_chunk_deleted_under_a_delete_is_not_found(self, tmp_path):
        # drop_disk landed between any existence check and the unlink
        with pytest.raises(ChunkNotFoundError):
            _RacingStore(tmp_path).delete(0, ChunkId(0, 0))

    def test_layout_on_disk(self, tmp_path):
        store = FileChunkStore(tmp_path / "root")
        store.put(7, ChunkId(12, 3), chunk())
        expected = tmp_path / "root" / "disk-007" / "s000012.003.chunk"
        assert expected.exists()

    def test_foreign_files_ignored(self, tmp_path):
        store = FileChunkStore(tmp_path)
        store.put(0, ChunkId(0, 0), chunk())
        (tmp_path / "disk-000" / "junk.txt").write_text("x")
        (tmp_path / "disk-000" / "bad.chunk").write_bytes(b"")
        assert store.chunks_on_disk(0) == [ChunkId(0, 0)]

    def test_no_tmp_left_behind(self, tmp_path):
        store = FileChunkStore(tmp_path)
        store.put(0, ChunkId(0, 0), chunk())
        assert not list(tmp_path.rglob("*.tmp"))

    def test_stale_tmp_swept_on_startup(self, tmp_path):
        store = FileChunkStore(tmp_path)
        store.put(0, ChunkId(0, 0), chunk())
        # the leftover of a crashed writer: a half-written tmp
        dead = dead_pid()
        stale = tmp_path / "disk-000" / f"s000009.001.chunk.{dead}.deadbeef.tmp"
        stale.write_bytes(b"partial")
        reopened = FileChunkStore(tmp_path)
        assert not stale.exists()
        assert np.array_equal(reopened.get(0, ChunkId(0, 0)), chunk())

    def test_sweep_spares_live_writers_tmp(self, tmp_path):
        """Two stores on one directory: the sweep must not delete a tmp
        file that a live process (here: ourselves) is still writing."""
        store = FileChunkStore(tmp_path)
        store.put(0, ChunkId(0, 0), chunk())
        import os

        live = tmp_path / "disk-000" / f"s000009.001.chunk.{os.getpid()}.abc123.tmp"
        live.write_bytes(b"in flight")
        legacy = tmp_path / "disk-000" / "garbage.tmp"
        legacy.write_bytes(b"unparseable name: swept")
        FileChunkStore(tmp_path)  # concurrent open sweeps the directory
        assert live.exists()
        assert not legacy.exists()

    def test_concurrent_writers_same_chunk_stay_consistent(self, tmp_path):
        """Two threads putting one chunk id a fixed number of times each:
        a put is one rename, so readers only ever see one of the two valid
        payloads — never a mismatch — and the final state verifies."""
        import threading

        store = FileChunkStore(tmp_path, durable=False)
        payloads = [chunk(fill=1), chunk(fill=2)]
        cid = ChunkId(0, 0)
        store.put(0, cid, payloads[0])
        writing = threading.Event()
        errors = []

        def writer(payload):
            for _ in range(200):
                store.put(0, cid, payload)

        def reader():
            while writing.is_set():
                data = store.get(0, cid)
                if not (np.array_equal(data, payloads[0])
                        or np.array_equal(data, payloads[1])):
                    errors.append(data)

        writers = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        writing.set()
        for t in writers + readers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        writing.clear()
        for t in readers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in writers + readers)
        assert not errors, "a reader observed torn chunk bytes"
        assert store.verify_chunk(0, cid) and store.checksum_failures == 0

    def test_sync_covers_every_put_returned_before_it(self, tmp_path, monkeypatch):
        """Eight writers on four disks race a syncing thread at a tiny
        switch interval: after the final sync, each disk's last put is
        followed by an fsync of its directory — no dirty mark is lost."""
        import itertools
        import sys
        import threading

        from repro.hdss import store as store_module

        store = FileChunkStore(tmp_path)
        ticks = itertools.count()
        last_put, synced = {}, {}
        real_fsync_dir = store_module.fsync_dir

        def fsync_dir(path):
            real_fsync_dir(path)
            synced.setdefault(path.name, []).append(next(ticks))

        book = threading.Lock()

        def writer(w):
            name = f"disk-{w % 4:03d}"
            for stripe in range(25):
                store.put(w % 4, ChunkId(stripe, w), chunk(size=16))
                with book:
                    last_put[name] = next(ticks)

        def syncer():
            while any(t.is_alive() for t in writers):
                store.sync()

        monkeypatch.setattr(store_module, "fsync_dir", fsync_dir)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
            threads = writers + [threading.Thread(target=syncer)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        store.sync()
        assert sorted(last_put) == [f"disk-{d:03d}" for d in range(4)]
        for disk, tick in last_put.items():
            assert max(synced[disk]) > tick, disk

class TestGetCached:
    """``get_cached``: a read that cannot block answers only verified bytes
    of a small chunk already in the page cache; every other case is None,
    with no side effect, and leaves the caller to ``get``."""

    def test_a_cached_chunk_reads_as_its_get(self, tmp_path):
        store = FileChunkStore(tmp_path)
        data = np.arange(4096, dtype=np.uint8)
        store.put(0, CID, data)
        assert np.array_equal(store.get_cached(0, CID), data)
        assert np.array_equal(store.get(0, CID), data)

    def test_missing_corrupt_and_legacy_chunks_are_none(self, tmp_path):
        """Legacy: a chunk without a trailer, which no ``put`` writes."""
        store = FileChunkStore(tmp_path)
        assert store.get_cached(0, CID) is None  # missing
        store.put(0, CID, chunk(4096))
        path = tmp_path / "disk-000" / "s000000.000.chunk"
        raw = bytearray(path.read_bytes())
        raw[7] ^= 0x10
        path.write_bytes(bytes(raw))
        assert store.get_cached(0, CID) is None
        assert store.checksum_failures == 0  # only the get counts and raises
        with pytest.raises(ChunkChecksumError):
            store.get(0, CID)
        assert store.checksum_failures == 1
        legacy = tmp_path / "legacy"
        lay_down(legacy, chunk())
        assert FileChunkStore(legacy).get_cached(0, CID) is None
        with pytest.raises(ChunkChecksumError):
            FileChunkStore(legacy).get(0, CID)

    def test_a_chunk_above_the_bound_is_none(self, tmp_path):
        from repro.hdss.store import CACHED_READ_MAX_BYTES

        store = FileChunkStore(tmp_path)
        store.put(0, CID, chunk(CACHED_READ_MAX_BYTES))
        store.put(0, ChunkId(1, 0), chunk(CACHED_READ_MAX_BYTES + 1))
        assert store.get_cached(0, CID) is not None
        assert store.get_cached(0, ChunkId(1, 0)) is None

    def test_a_read_that_would_block_or_come_up_short_is_none(
        self, tmp_path, monkeypatch
    ):
        import os

        import repro.hdss.store as store_module

        store = FileChunkStore(tmp_path)
        store.put(0, CID, chunk(4096))
        real = os.preadv

        def short(fd, buffers, offset, flags):
            return real(fd, [memoryview(buffers[0])[:-1]], offset, flags)

        def would_block(*args):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "preadv", short)
        assert store.get_cached(0, CID) is None
        monkeypatch.setattr(os, "preadv", would_block)
        assert store.get_cached(0, CID) is None
        monkeypatch.setattr(os, "preadv", real)
        monkeypatch.setattr(store_module, "_RWF_NOWAIT", None)
        assert store.get_cached(0, CID) is None  # no RWF_NOWAIT here
        assert np.array_equal(store.get(0, CID), chunk(4096))

    def test_decorators_answer_none_and_shards_delegate(self, tmp_path):
        inner = FileChunkStore(tmp_path / "a")
        inner.put(0, CID, chunk())
        assert FaultyChunkStore(inner).get_cached(0, CID) is None
        assert ForwardingChunkStore(inner).get_cached(0, CID) is None
        assert InMemoryChunkStore().get_cached(0, CID) is None
        sharded = ShardedChunkStore([inner, FileChunkStore(tmp_path / "b")])
        assert np.array_equal(sharded.get_cached(0, CID), chunk())
        assert sharded.get_cached(1, CID) is None


class TestChecksumIntegrity:
    def test_digest_trailer_written_with_chunk(self, tmp_path):
        """One file: the payload, then magic, stripe, shard and length, then
        SHA-256 over the payload and that head."""
        import struct

        store = FileChunkStore(tmp_path)
        store.put(7, ChunkId(12, 3), chunk())
        path = tmp_path / "disk-007" / "s000012.003.chunk"
        assert list(path.parent.iterdir()) == [path]
        raw = path.read_bytes()
        assert len(raw) == 64 + TRAILER_SIZE and raw[:64] == chunk().tobytes()
        head = struct.pack("<8sQQQ", b"HDPSRCK1", 12, 3, 64)
        assert raw[64:] == head + hashlib.sha256(raw[:64] + head).digest()

    def test_bit_flip_detected_on_get(self, tmp_path):
        store = FileChunkStore(tmp_path)
        store.put(0, ChunkId(0, 0), chunk(fill=9))
        path = tmp_path / "disk-000" / "s000000.000.chunk"
        data = bytearray(path.read_bytes())
        data[5] ^= 0x01  # a single flipped bit
        path.write_bytes(bytes(data))
        with pytest.raises(ChunkChecksumError):
            store.get(0, ChunkId(0, 0))
        assert store.checksum_failures == 1

    def test_overwrite_refreshes_sidecar(self, tmp_path):
        store = FileChunkStore(tmp_path)
        cid = ChunkId(0, 0)
        store.put(0, cid, chunk(fill=1))
        store.put(0, cid, chunk(fill=2))
        assert store.get(0, cid)[0] == 2  # the trailer vouches for the new bytes

    def test_verify_chunk(self, tmp_path):
        store = FileChunkStore(tmp_path)
        cid = ChunkId(0, 0)
        store.put(0, cid, chunk())
        assert store.verify_chunk(0, cid)
        path = tmp_path / "disk-000" / "s000000.000.chunk"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ChunkChecksumError):
            store.verify_chunk(0, cid)

    def test_sidecar_less_legacy_chunk_served(self, tmp_path):
        """Inverted: a chunk without a valid trailer is a checksum failure —
        bytes nothing vouches for are never served."""
        path = lay_down(tmp_path, chunk(fill=4))
        store = FileChunkStore(tmp_path)
        with pytest.raises(ChunkChecksumError):
            store.get(0, CID)
        with pytest.raises(ChunkChecksumError):
            store.verify_chunk(0, CID)
        # nor is a trailer-format chunk whose trailer was cut off
        store.put(0, CID, chunk(fill=4))
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(ChunkChecksumError):
            store.get(0, CID)

    def test_misdirected_whole_file_copy_is_caught(self, tmp_path):
        """A chunk file copied whole over another chunk's name is
        self-consistent; its trailer names the donor, so it still fails."""
        store = FileChunkStore(tmp_path)
        victim, donor = ChunkId(0, 0), ChunkId(3, 1)
        store.put(0, victim, chunk(fill=1))
        store.put(0, donor, chunk(fill=2))
        store._chunk_path(0, victim).write_bytes(store._chunk_path(0, donor).read_bytes())
        with pytest.raises(ChunkChecksumError):
            store.get(0, victim)
        with pytest.raises(ChunkChecksumError):
            store.verify_chunk(0, victim)
        assert store.verify_chunk(0, donor)

CID = ChunkId(0, 0)


def lay_down(root, payload, sidecar=None):
    """Chunk ``CID`` on disk 0 as the earlier two-file layout wrote it: the
    bare payload, and a ``<chunk>.crc32c`` sidecar holding ``sidecar``
    (text or bytes) unless it is None. Returns the chunk's path."""
    disk_dir = Path(root) / "disk-000"
    path = disk_dir / "s000000.000.chunk"
    disk_dir.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload.tobytes())
    if sidecar is not None:
        side = disk_dir / (path.name + ".crc32c")
        if isinstance(sidecar, bytes):
            side.write_bytes(sidecar)
        else:
            side.write_text(sidecar)
    return path


_PAYLOAD = np.arange(64, dtype=np.uint8)
_SHA = hashlib.sha256(_PAYLOAD.tobytes()).hexdigest()
_CRC = f"{crc32c(_PAYLOAD):08x}"


def _beside(root, text):
    """The chunk and a sidecar, as the earlier layout's ``put`` left them."""
    lay_down(root, _PAYLOAD, text)
    return Path(root) / "disk-000" / "s000000.000.chunk.crc32c"


def _flipped_under(root):
    """A CRC32C sidecar whose chunk took a flipped bit after it landed."""
    path = lay_down(root, _PAYLOAD, _CRC + "\n")
    raw = bytearray(path.read_bytes())
    raw[5] ^= 0x01
    path.write_bytes(bytes(raw))
    return path.with_name(path.name + ".crc32c")


def _parent_store(root):
    """A store as the earlier layout left it: a chunk with its ``%08x``
    sidecar, and a sidecar-less chunk beside it."""
    sidecar = _beside(root, _CRC + "\n")
    (sidecar.parent / "s000001.002.chunk").write_bytes(_PAYLOAD.tobytes())
    return sidecar


def _orphan(root):
    """A sidecar whose chunk never landed: the earlier layout's crash."""
    FileChunkStore(root).put(0, ChunkId(1, 0), _PAYLOAD)
    orphan = Path(root) / "disk-000" / "s000009.001.chunk.crc32c"
    orphan.write_text("00000000\n")
    return orphan


def _orphan_in_a_shard(root):
    ShardedChunkStore.from_root(root, num_shards=2).put(1, ChunkId(1, 1), _PAYLOAD)
    orphan = Path(root) / "shard-01" / "disk-001" / "s000002.000.chunk.crc32c"
    orphan.write_bytes(b"12345678")
    return orphan


#: Every sidecar shape the earlier layout wrote, or a damaged one: (lay it
#: down under ``root`` and return the sidecar's path, open the store).
_SIDECAR_SHAPES = {
    "sha256": (lambda r: _beside(r, _SHA + "\n"), FileChunkStore),
    "crc32c": (lambda r: _beside(r, _CRC + "\n"), FileChunkStore),
    "crc32c-upper": (lambda r: _beside(r, _CRC.upper() + "\n"), FileChunkStore),
    "crc32c-padded": (lambda r: _beside(r, f"  {_CRC} \n"), FileChunkStore),
    "crc32c-upper-padded": (lambda r: _beside(r, f"\t{_CRC.upper()}\r\n"), FileChunkStore),
    "length-63": (lambda r: _beside(r, _SHA[:-1]), FileChunkStore),
    "length-65": (lambda r: _beside(r, _SHA + "0"), FileChunkStore),
    "length-9": (lambda r: _beside(r, _CRC + "0"), FileChunkStore),
    "length-7": (lambda r: _beside(r, _CRC[1:]), FileChunkStore),
    "crc32c-flipped-chunk": (_flipped_under, FileChunkStore),
    "parent-store": (_parent_store, FileChunkStore),
    "binary": (lambda r: _beside(r, b"\xff\xfe" * 4), FileChunkStore),
    "garbage": (lambda r: _beside(r, "not-a-crc\n"), FileChunkStore),
    "orphan": (_orphan, FileChunkStore),
    "orphan-sharded": (
        _orphan_in_a_shard, lambda r: ShardedChunkStore.from_root(r, num_shards=2)
    ),
}


class TestSidecarFormats:
    """One chunk-file format: the one ``put`` writes catches any flipped
    bit, and a store of the earlier layout — a bare chunk beside a
    ``<chunk>.crc32c`` digest sidecar — is refused at open, whatever the
    sidecar holds, and nothing on disk is touched."""

    @pytest.mark.parametrize("shape", list(_SIDECAR_SHAPES))
    def test_a_sidecar_refuses_the_open(self, tmp_path, shape):
        lay, open_store = _SIDECAR_SHAPES[shape]
        sidecar = lay(tmp_path)
        # a dead writer's tmp beside it: a refused open sweeps nothing
        stale = sidecar.parent / f"s000009.002.chunk.{dead_pid()}.deadbeef.tmp"
        stale.write_bytes(b"partial")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(ConfigurationError, match="pre-trailer layout") as err:
            open_store(tmp_path)
        assert str(sidecar) in str(err.value)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @settings(max_examples=80, deadline=None)
    @given(size=st.sampled_from([0, 1, 15, 16 * 1024 + 3]), data=st.data())
    def test_any_flipped_bit_of_a_trailer_format_file_is_caught(self, size, data):
        """Payload or trailer — magic, identity, length or digest — one
        flipped bit fails ``get`` and ``verify_chunk``."""
        payload = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
        with tempfile.TemporaryDirectory() as root:
            store = FileChunkStore(root, durable=False)
            store.put(0, CID, payload)
            path = store._chunk_path(0, CID)
            raw = bytearray(path.read_bytes())
            bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
            raw[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(raw))
            with pytest.raises(ChunkChecksumError):
                store.get(0, CID)
            with pytest.raises(ChunkChecksumError):
                store.verify_chunk(0, CID)


class TestPutOrdering:
    """``put`` is one tmp file and one rename: whatever instant a crash
    picks, the chunk is its old version, its new one, or absent — never
    visible without the digest that vouches for it."""

    def crash_at_rename(self, tmp_path, monkeypatch, cid, payload):
        """``put`` dies at its rename; returns the disk directory as the
        crash left it."""
        import os

        store = FileChunkStore(tmp_path)

        def replace(src, dst):
            raise OSError("crashed at the rename")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            store.put(0, cid, payload)
        monkeypatch.undo()
        return tmp_path / "disk-000"

    def test_first_write_crash_leaves_only_a_tmp_the_sweep_removes(
        self, tmp_path, monkeypatch
    ):
        cid = ChunkId(0, 0)
        disk_dir = self.crash_at_rename(tmp_path, monkeypatch, cid, chunk())
        (tmp,) = disk_dir.iterdir()
        assert tmp.name.startswith("s000000.000.chunk.") and tmp.suffix == ".tmp"
        # While the writer (this process) lives its tmp is left alone.
        racing = FileChunkStore(tmp_path)
        assert racing.swept_tmp_files == 0 and tmp.exists()
        assert not racing.contains(0, cid)
        # The writer is dead: its tmp is garbage.
        pid = tmp.name.split(".")[-3]
        tmp.rename(tmp.with_name(tmp.name.replace(f".{pid}.", f".{dead_pid()}.")))
        reopened = FileChunkStore(tmp_path)
        assert reopened.swept_tmp_files == 1
        assert not reopened.contains(0, cid)
        assert not reopened.is_readable(0, cid)
        assert list(disk_dir.iterdir()) == []

    def test_torn_overwrite_fails_verification(
        self, tmp_path, monkeypatch
    ):
        cid = ChunkId(0, 0)
        FileChunkStore(tmp_path).put(0, cid, chunk(fill=1))
        # A crash at the rename keeps the old version, intact.
        self.crash_at_rename(tmp_path, monkeypatch, cid, chunk(fill=2))
        assert FileChunkStore(tmp_path).get(0, cid)[0] == 1
        # Bytes torn under the name — in the payload or the trailer — never
        # pass, and never as a trailer-less legacy chunk.
        path = tmp_path / "disk-000" / "s000000.000.chunk"
        whole = path.read_bytes()
        for cut in (32, 64, 64 + TRAILER_SIZE // 2, len(whole) - 1):
            path.write_bytes(whole[:cut])
            with pytest.raises(ChunkChecksumError):
                FileChunkStore(tmp_path).get(0, cid)

    def test_one_fsync_per_put_and_one_per_dirty_directory_on_sync(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.hdss import store as store_module

        fsyncs, hashes = [], []
        real_fsync, real_digest = os.fsync, store_module.chunk_digest
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
        monkeypatch.setattr(
            store_module, "chunk_digest",
            lambda *a: (hashes.append(1), real_digest(*a))[1],
        )
        dirs = []
        real_fsync_dir = store_module.fsync_dir
        monkeypatch.setattr(
            store_module, "fsync_dir",
            lambda path: (dirs.append(path.name), real_fsync_dir(path))[1],
        )
        store = FileChunkStore(tmp_path)
        for disk, stripe in ((0, 0), (0, 1), (3, 0)):
            store.put(disk, ChunkId(stripe, 0), chunk())
        assert len(fsyncs) == 3 and len(hashes) == 3
        store.sync()
        # the root once for its two new directories, then each directory
        assert len(fsyncs) == 3 + 1 + 2
        assert dirs == [tmp_path.name, "disk-000", "disk-003"]
        store.put(3, ChunkId(1, 0), chunk())
        store.sync()
        assert len(fsyncs) == 6 + 1 + 1  # no new directory: no root fsync
        assert dirs[3:] == ["disk-003"]
        store.sync()
        assert len(fsyncs) == 8  # nothing dirty since
        quiet = FileChunkStore(tmp_path / "quiet", durable=False)
        quiet.put(0, ChunkId(0, 0), chunk())
        quiet.sync()
        assert len(fsyncs) == 8

    def test_sync_names_disks_and_keeps_marks_an_fsync_failed(
        self, tmp_path, monkeypatch
    ):
        """``sync(disks)`` fsyncs those directories with no put of its own
        (a resumed job's spares, filled by a dead process), and the root
        for their entries; a failed fsync leaves every mark — the root's
        too — for the next sync."""
        from repro.hdss import store as store_module

        writer = FileChunkStore(tmp_path)
        writer.put(2, CID, chunk())  # a process that dies before its sync
        store = FileChunkStore(tmp_path)
        store.put(0, CID, chunk())
        store.put(1, CID, chunk())
        root = tmp_path.name
        synced, failing = [], {"disk-001"}
        real_fsync_dir = store_module.fsync_dir

        def fsync_dir(path):
            if path.name in failing:
                raise OSError(5, "EIO", str(path))
            real_fsync_dir(path)
            synced.append(path.name)

        monkeypatch.setattr(store_module, "fsync_dir", fsync_dir)
        with pytest.raises(OSError):
            store.sync()
        assert synced == [root, "disk-000"]
        failing.clear()
        store.sync([2])
        assert synced[2:] == [root, "disk-000", "disk-001", "disk-002"]
        store.sync()
        assert len(synced) == 6  # nothing dirty since

    def test_sharded_sync_routes_named_disks_to_their_shards(
        self, tmp_path, monkeypatch
    ):
        from repro.hdss import store as store_module

        store = ShardedChunkStore.from_root(tmp_path, num_shards=2)
        for disk in range(4):
            store.put(disk, CID, chunk())
        store.sync()
        synced = []
        monkeypatch.setattr(
            store_module, "fsync_dir",
            lambda path: synced.append((path.parent.name, path.name)),
        )
        store.sync([1, 2])
        assert sorted(synced) == [("shard-00", "disk-002"), ("shard-01", "disk-001")]

    def test_one_open_per_get_and_per_verify(self, tmp_path, monkeypatch):
        import builtins

        store = FileChunkStore(tmp_path)
        store.put(0, CID, chunk())
        opened = []
        real_open = builtins.open
        monkeypatch.setattr(
            builtins, "open", lambda name, *a, **kw: (opened.append(name), real_open(name, *a, **kw))[1]
        )
        store.get(0, CID)
        assert len(opened) == 1
        store.verify_chunk(0, CID)
        assert len(opened) == 2

    def test_a_put_unlinks_nothing(self, tmp_path, monkeypatch):
        """The tmp is renamed over the chunk; there is no sidecar to drop."""
        import os

        store = FileChunkStore(tmp_path)
        store.put(0, CID, chunk(fill=1))
        unlinked = []
        real_unlink = os.unlink
        monkeypatch.setattr(
            os, "unlink", lambda *a, **kw: (unlinked.append(a), real_unlink(*a, **kw))[1]
        )
        store.put(0, CID, chunk(fill=2))  # an overwrite
        store.put(0, ChunkId(1, 0), chunk())  # a first write
        assert unlinked == []

    def test_a_corrupt_chunk_is_read_once(self, tmp_path, monkeypatch):
        """A mismatch is stable (a ``put`` renames a whole file in), so the
        ``get`` that finds it raises on its first read."""
        from repro.hdss import store as store_module

        store = FileChunkStore(tmp_path)
        store.put(0, CID, chunk(4096))
        path = store._chunk_path(0, CID)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        reads = []
        real_read = store_module._read_file
        monkeypatch.setattr(
            store_module, "_read_file", lambda name: (reads.append(name), real_read(name))[1]
        )
        with pytest.raises(ChunkChecksumError):
            store.get(0, CID)
        assert reads == [str(path)]
        assert store.checksum_failures == 1


class TestPersistence:
    """``persistent``: does a ``put`` that returned outlive this process?"""

    def test_each_backend_answers_for_itself(self, tmp_path):
        assert not InMemoryChunkStore().persistent
        assert FileChunkStore(tmp_path / "a").persistent
        assert FileChunkStore(tmp_path / "b", durable=False).persistent

    def test_decorators_answer_with_their_inner(self, tmp_path):
        assert not FaultyChunkStore(InMemoryChunkStore()).persistent
        assert ForwardingChunkStore(FileChunkStore(tmp_path)).persistent

    def test_sharded_store_is_persistent_only_if_every_shard_is(self, tmp_path):
        files = [FileChunkStore(tmp_path / str(i)) for i in range(2)]
        assert ShardedChunkStore(files).persistent
        assert not ShardedChunkStore(files + [InMemoryChunkStore()]).persistent


class TestIntegrityEndToEnd:
    """A corrupted survivor surfaces as a degraded stripe, not a crash."""

    def make_file_backed_server(self, tmp_path):
        from repro.hdss import HDSSConfig, HighDensityStorageServer

        cfg = HDSSConfig(num_disks=14, n=9, k=6, chunk_size=2048,
                         memory_chunks=12, spares=5, seed=7)
        server = HighDensityStorageServer(
            cfg, store=FileChunkStore(tmp_path / "chunks")
        )
        server.provision_stripes(12, with_data=True)
        return server

    def test_corrupt_survivor_reported_as_degraded(self, tmp_path):
        # CI's checksum-corruption smoke, run as a test: the script flips
        # one byte in a surviving chunk of an affected stripe and recovers.
        spec = importlib.util.spec_from_file_location(
            "smoke_checksum_corruption",
            Path(__file__).parent.parent / "tools" / "smoke_checksum_corruption.py",
        )
        smoke = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(smoke)
        summary = smoke.run(tmp_path / "chunks")
        assert summary["checksum_failures"] >= 1
        assert summary["lost"] == 0  # k clean shards remain; stripe recovers
        assert summary["recovered_after_replan"] == 1

    def test_writeback_certified_by_reread(self, tmp_path):
        from repro.core import FullStripeRepair, recover_disk
        from repro.ec.stripe import ChunkId as CID

        server = self.make_file_backed_server(tmp_path)
        server.fail_disk(0)
        result = recover_disk(server, FullStripeRepair(), 0)
        assert result.certified
        for (si, shard, spare) in result.data_path.writebacks:
            assert server.store.verify_chunk(spare, CID(si, shard))
