"""ShardedChunkStore: routing and delegation semantics."""

import numpy as np
import pytest

from repro.ec.stripe import ChunkId
from repro.errors import ChunkNotFoundError, StorageError
from repro.hdss.store import (
    InMemoryChunkStore,
    ShardedChunkStore,
)


def chunk(size=64, fill=7):
    return np.full(size, fill, dtype=np.uint8)


@pytest.fixture(params=["memory", "file"])
def sharded(request, tmp_path):
    if request.param == "memory":
        return ShardedChunkStore([InMemoryChunkStore() for _ in range(4)])
    return ShardedChunkStore.from_root(tmp_path, num_shards=4, durable=False)


class TestRouting:
    def test_disk_maps_to_modulo_shard(self, sharded):
        for disk in range(12):
            assert sharded.shard_of(disk) == disk % 4
            assert sharded.shard_for(disk) is sharded.shards[disk % 4]

    def test_put_lands_on_owning_shard_only(self, sharded):
        cid = ChunkId(0, 0)
        sharded.put(6, cid, chunk())
        assert sharded.shards[2].contains(6, cid)
        for idx in (0, 1, 3):
            assert not sharded.shards[idx].contains(6, cid)
        assert np.array_equal(sharded.get(6, cid), chunk())

    def test_empty_shard_list_rejected(self):
        with pytest.raises(StorageError):
            ShardedChunkStore([])

    def test_from_root_rejects_zero_shards(self, tmp_path):
        with pytest.raises(StorageError):
            ShardedChunkStore.from_root(tmp_path, num_shards=0)

    def test_from_root_directory_layout(self, tmp_path):
        store = ShardedChunkStore.from_root(tmp_path, num_shards=3, durable=False)
        store.put(5, ChunkId(0, 0), chunk())
        # disk 5 -> shard 5 % 3 == 2 -> root/shard-02/disk-005
        assert (tmp_path / "shard-02" / "disk-005").is_dir()
        assert not (tmp_path / "shard-00" / "disk-005").exists()
        assert store.num_shards == 3


class TestContract:
    def test_roundtrip_delete_contains(self, sharded):
        cid = ChunkId(2, 1)
        sharded.put(9, cid, chunk(fill=3))
        assert sharded.contains(9, cid)
        assert (9, cid) in sharded
        sharded.delete(9, cid)
        assert not sharded.contains(9, cid)
        with pytest.raises(ChunkNotFoundError):
            sharded.get(9, cid)

    def test_chunks_on_disk_sorted(self, sharded):
        ids = [ChunkId(2, 0), ChunkId(0, 1), ChunkId(0, 0)]
        for cid in ids:
            sharded.put(3, cid, chunk())
        assert sharded.chunks_on_disk(3) == sorted(ids)

    def test_drop_disk_scoped_to_owner(self, sharded):
        sharded.put(0, ChunkId(0, 0), chunk())
        sharded.put(0, ChunkId(1, 0), chunk())
        sharded.put(4, ChunkId(2, 0), chunk())  # same shard (0), other disk
        sharded.put(1, ChunkId(3, 0), chunk())  # different shard
        assert sharded.drop_disk(0) == 2
        assert sharded.contains(4, ChunkId(2, 0))
        assert sharded.contains(1, ChunkId(3, 0))

    def test_verify_chunk(self, sharded):
        cid = ChunkId(0, 0)
        sharded.put(7, cid, chunk())
        assert sharded.verify_chunk(7, cid)
        # one contract on every backend: a missing chunk raises
        with pytest.raises(ChunkNotFoundError):
            sharded.verify_chunk(7, ChunkId(9, 9))

    def test_checksum_failures_sums_shards(self, tmp_path):
        store = ShardedChunkStore.from_root(tmp_path, num_shards=2, durable=False)
        assert store.checksum_failures == 0
        # memory shards have no counter; the property must still work
        mem = ShardedChunkStore([InMemoryChunkStore()])
        assert mem.checksum_failures == 0


class TestStartupSweep:
    """Crash leftovers — dead-writer tmps — are swept at open and surfaced
    as an observable counter. (A store holding a ``.crc32c`` sidecar of the
    earlier layout is refused at open instead:
    ``test_hdss_store.py::TestSidecarFormats``.)"""

    def test_sweeps_dead_tmp(self, tmp_path):
        store = ShardedChunkStore.from_root(tmp_path, num_shards=2, durable=False)
        store.put(0, ChunkId(0, 0), chunk())
        disk_dir = store.shard_for(0)._chunk_path(0, ChunkId(0, 0)).parent
        # a tmp from a writer pid that cannot be alive (pid 1 is init, so
        # use an impossible one)
        (disk_dir / "s000001.000.chunk.999999999.deadbeef.tmp").write_bytes(b"x")
        reopened = ShardedChunkStore.from_root(tmp_path, num_shards=2, durable=False)
        assert reopened.swept_tmp_files == 1
        assert not (disk_dir / "s000001.000.chunk.999999999.deadbeef.tmp").exists()
        # the real chunk is untouched
        assert np.array_equal(reopened.get(0, ChunkId(0, 0)), chunk())

    def test_live_writer_tmp_left_alone(self, tmp_path):
        import os

        store = ShardedChunkStore.from_root(tmp_path, num_shards=2, durable=False)
        store.put(0, ChunkId(0, 0), chunk())
        disk_dir = store.shard_for(0)._chunk_path(0, ChunkId(0, 0)).parent
        mine = disk_dir / f"s000003.000.chunk.{os.getpid()}.abcd1234.tmp"
        mine.write_bytes(b"in-flight")
        reopened = ShardedChunkStore.from_root(tmp_path, num_shards=2, durable=False)
        assert reopened.swept_tmp_files == 0
        assert mine.exists()

    def test_clean_store_sweeps_nothing(self, tmp_path):
        store = ShardedChunkStore.from_root(tmp_path, num_shards=2, durable=False)
        store.put(3, ChunkId(1, 1), chunk())
        reopened = ShardedChunkStore.from_root(tmp_path, num_shards=2, durable=False)
        assert reopened.swept_tmp_files == 0


class TestApplyCorruption:
    """Deterministic silent-corruption injection beneath the checksum layer."""

    @pytest.fixture
    def filestore(self, tmp_path):
        store = ShardedChunkStore.from_root(tmp_path, num_shards=2, durable=False)
        for d in range(4):
            for s in range(3):
                store.put(d, ChunkId(s, 0), chunk(fill=(d * 3 + s) % 250 + 1))
        return store

    @pytest.mark.parametrize("kind", ["bitrot", "torn_write", "misdirected_write"])
    def test_each_kind_breaks_verification_silently(self, filestore, kind):
        from repro.errors import ChunkChecksumError
        from repro.faults import apply_corruption
        from repro.faults.spec import FaultEvent

        cid = ChunkId(1, 0)
        assert filestore.verify_chunk(2, cid)
        apply_corruption(
            filestore, FaultEvent(at=0.0, kind=kind, disk=2, stripe=1, shard=0)
        )
        # silent: still listed, still "contained" — only a verify notices
        assert filestore.contains(2, cid)
        with pytest.raises(ChunkChecksumError):
            filestore.verify_chunk(2, cid)

    def test_memory_store_rejected(self):
        from repro.errors import ConfigurationError
        from repro.faults import apply_corruption
        from repro.faults.spec import FaultEvent

        store = ShardedChunkStore([InMemoryChunkStore() for _ in range(2)])
        with pytest.raises(ConfigurationError):
            apply_corruption(
                store, FaultEvent(at=0.0, kind="bitrot", disk=0, stripe=0, shard=0)
            )

    def test_missing_chunk_raises_not_found(self, filestore):
        from repro.faults import apply_corruption
        from repro.faults.spec import FaultEvent

        with pytest.raises(ChunkNotFoundError):
            apply_corruption(
                filestore,
                FaultEvent(at=0.0, kind="bitrot", disk=0, stripe=99, shard=0),
            )
