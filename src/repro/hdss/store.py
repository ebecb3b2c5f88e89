"""Chunk data stores: where shard bytes actually live.

Two backends with one interface:

* :class:`InMemoryChunkStore` — dict-backed, used by simulations and tests;
* :class:`FileChunkStore` — one directory per disk with one file per chunk,
  mirroring the paper's setup of 36 directories each mounting one disk.

Stores address chunks by ``(disk_id, ChunkId)``; the disk id is explicit so
a store can also hold the *backup disks* repaired chunks are written to.

:class:`ShardedChunkStore` composes several backends into one store routed
by disk id, each shard owning a disjoint set of disk directories.

A write is one :meth:`ChunkStore.put` per chunk; callers that must not
block (the asyncio repair service) run it in a worker thread. Each caller
then calls :meth:`ChunkStore.sync` once at its commit point (a repair job
before ``complete``), which makes its puts' renames durable. A read such a
caller may make on its own thread is :meth:`ChunkStore.get_cached`: the
verified bytes of a small chunk already in memory, or None.
"""

from __future__ import annotations

import abc
import hashlib
import os
import struct
import threading
import uuid
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ec.stripe import ChunkId
from repro.errors import (
    ChunkChecksumError,
    ChunkNotFoundError,
    ConfigurationError,
    LatentSectorError,
    StorageError,
)
from repro.journal.wal import fsync_dir

Key = Tuple[int, ChunkId]

#: Head of a chunk file's trailer: magic, stripe, shard, payload length.
_HEAD = struct.Struct("<8sQQQ")
_MAGIC = b"HDPSRCK1"
#: Bytes after the payload: the head, then the SHA-256 digest.
TRAILER_SIZE = _HEAD.size + hashlib.sha256().digest_size

#: Largest payload :meth:`FileChunkStore.get_cached` reads. A verified
#: page-cache read costs its caller 29 us at 16 KiB, 74 us at 64 KiB,
#: 137 us at 128 KiB and 1.09 ms at 1 MiB (2-vCPU Xeon, CPython 3.11, best
#: of 5 x 200); handing a call to a worker thread (``asyncio.to_thread``)
#: costs 120-185 us of CPU on the same host. They meet near 128 KiB: above
#: it the hand-off is the cheaper way not to stall an event loop.
CACHED_READ_MAX_BYTES = 128 * 1024

#: ``preadv`` flag that fails rather than waits for the device (Linux 4.14+).
_RWF_NOWAIT = getattr(os, "RWF_NOWAIT", None)


def chunk_digest(payload: "bytes | np.ndarray", head: bytes = b"") -> bytes:
    """The one chunk digest: SHA-256 of ``payload``, then ``head`` — in
    C, with the GIL released for buffers over 2 KiB; it misses a given
    corruption with probability 2**-256 whatever the error pattern."""
    digest = hashlib.sha256(payload)
    digest.update(head)
    return digest.digest()


def _trailer(chunk_id: ChunkId, payload: np.ndarray) -> bytes:
    head = _HEAD.pack(_MAGIC, chunk_id.stripe_index, chunk_id.shard_index, payload.size)
    return head + chunk_digest(payload, head)


def _unwrap(raw: np.ndarray, chunk_id: ChunkId) -> Optional[np.ndarray]:
    """The payload of ``raw`` if it ends in a trailer that vouches for it
    as ``chunk_id``, else None. Every bit of the file is under the digest,
    and the head must name ``chunk_id``: a file copied whole over another
    chunk's name is self-consistent and still fails here."""
    size = raw.size - TRAILER_SIZE
    if size < 0:
        return None
    magic, stripe, shard, length = _HEAD.unpack_from(raw, size)
    if (magic, stripe, shard, length) != (
        _MAGIC, chunk_id.stripe_index, chunk_id.shard_index, size
    ):
        return None
    payload, head_end = raw[:size], size + _HEAD.size
    head = raw[size:head_end].tobytes()
    return payload if chunk_digest(payload, head) == raw[head_end:].tobytes() else None


def _read_file(name: str) -> np.ndarray:
    """A file's bytes in one fresh uint8 array: an unbuffered open, one
    ``fstat`` and ``readinto`` the array itself — no ``bytes`` in between.
    A file cut short under the read yields what was there."""
    with open(name, "rb", buffering=0) as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        view, got = memoryview(buf), 0
        while got < len(buf):
            n = fh.readinto(view[got:])
            if not n:
                return buf[:got]
            got += n
    return buf


def _read_cached(name: str) -> Optional[np.ndarray]:
    """File ``name``'s bytes if it is at most :data:`CACHED_READ_MAX_BYTES`
    plus a trailer long and every byte is in the page cache, else None
    (absent, too big, not cached, no ``RWF_NOWAIT``). One ``preadv`` with
    ``RWF_NOWAIT``: a byte the device would have to supply makes the read
    short or fail with ``EAGAIN``, never wait. The open and ``fstat`` may
    still touch metadata."""
    if _RWF_NOWAIT is None:
        return None
    try:
        fd = os.open(name, os.O_RDONLY)
    except OSError:
        return None
    try:
        size = os.fstat(fd).st_size
        if size > CACHED_READ_MAX_BYTES + TRAILER_SIZE:
            return None
        buf = np.empty(size, dtype=np.uint8)
        if os.preadv(fd, [buf], 0, _RWF_NOWAIT) != size:
            return None
    except OSError:  # EAGAIN (BlockingIOError), EOPNOTSUPP, ...
        return None
    finally:
        os.close(fd)
    return buf


def _tmp_writer_alive(name: str) -> bool:
    """Whether the writer pid a tmp-file name carries is a live process
    (EPERM counts as alive); False for a legacy name with no pid."""
    parts = name[: -len(".tmp")].rsplit(".", 2)
    if len(parts) != 3 or not parts[1].isdigit():
        return False
    try:
        os.kill(int(parts[1]), 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - platform quirk
        return True
    return True


class ChunkStore(abc.ABC):
    """Abstract chunk-addressed byte store."""

    #: Checksum mismatches detected, and crash leftovers (dead-writer tmp
    #: files) swept at open; zero on backends with neither.
    checksum_failures = 0
    swept_tmp_files = 0

    @property
    @abc.abstractmethod
    def persistent(self) -> bool:
        """Whether a ``put`` that returned is still there after this process
        dies. The repair journal names a chunk on a persistent store and
        must carry its bytes on a volatile one."""

    @property
    def reads_overlap(self) -> bool:
        """Whether a ``get`` waits on a device (True) or is this process's
        own CPU work (False). The repair service reads a round's survivors
        side by side only when they overlap; otherwise it reads them in
        order on the event loop while :meth:`get_cached` answers, and one
        worker call reads, verifies and folds the rest of the round (none
        when every read answered)."""
        return False

    @abc.abstractmethod
    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        """Write one chunk (uint8 array) to ``disk_id``."""

    @abc.abstractmethod
    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        """Read one chunk; raises :class:`ChunkNotFoundError` if absent."""

    def get_cached(self, disk_id: int, chunk_id: ChunkId) -> Optional[np.ndarray]:
        """A ``get`` that cannot block: the chunk's verified payload when it
        can be had without waiting on a device, else None — and None for
        every failure, with no side effect: a caller that gets None makes
        the ``get`` that raises, counts and re-reads. None by default."""
        return None

    @abc.abstractmethod
    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        """Remove one chunk (missing chunks raise)."""

    @abc.abstractmethod
    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        """Whether the chunk exists."""

    @abc.abstractmethod
    def chunks_on_disk(self, disk_id: int) -> List[ChunkId]:
        """All chunk ids stored on ``disk_id``."""

    @abc.abstractmethod
    def drop_disk(self, disk_id: int) -> int:
        """Destroy all chunks on a disk (failure); returns chunks lost."""

    def sync(self, disks: Iterable[int] = ()) -> None:
        """Make every ``put`` that returned before this call survive power
        loss; until then a power cut may lose a put's rename (the chunk is
        absent, never torn). Every chunk now on ``disks`` is made durable
        too, whichever process put it: a resumed job's spares hold chunks
        its dead predecessor renamed in and never synced. A no-op where
        puts are already settled."""

    def is_readable(self, disk_id: int, chunk_id: ChunkId) -> bool:
        """Whether a ``get`` is expected to succeed, without reading.

        Repair planning asks this to pick survivors; backends that know of
        unreadable chunks (injected sector errors) answer for themselves.
        """
        return self.contains(disk_id, chunk_id)

    def verify_chunk(self, disk_id: int, chunk_id: ChunkId) -> bool:
        """Re-read one chunk end to end; True when it is intact.

        Raises whatever ``get`` raises for a missing or corrupt chunk
        (:class:`ChunkNotFoundError`, :class:`LatentSectorError`).
        """
        self.get(disk_id, chunk_id)
        return True

    def __contains__(self, key: Key) -> bool:
        return self.contains(*key)


class InMemoryChunkStore(ChunkStore):
    """Dict-backed store. Arrays are copied on put/get to avoid aliasing."""

    persistent = False

    def __init__(self) -> None:
        self._data: Dict[int, Dict[ChunkId, np.ndarray]] = {}

    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        arr = np.asarray(data, dtype=np.uint8)
        if arr.ndim != 1:
            raise StorageError(f"chunk {chunk_id} must be 1-D, got shape {arr.shape}")
        self._data.setdefault(disk_id, {})[chunk_id] = arr.copy()

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        try:
            return self._data[disk_id][chunk_id].copy()
        except KeyError:
            raise ChunkNotFoundError(f"chunk {chunk_id} not on disk {disk_id}") from None

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        try:
            del self._data[disk_id][chunk_id]
        except KeyError:
            raise ChunkNotFoundError(f"chunk {chunk_id} not on disk {disk_id}") from None

    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return chunk_id in self._data.get(disk_id, {})

    def chunks_on_disk(self, disk_id: int) -> List[ChunkId]:
        return sorted(self._data.get(disk_id, {}))

    def drop_disk(self, disk_id: int) -> int:
        lost = len(self._data.get(disk_id, {}))
        self._data.pop(disk_id, None)
        return lost

    def total_chunks(self) -> int:
        """Total chunks across every disk."""
        return sum(len(d) for d in self._data.values())


class ForwardingChunkStore(ChunkStore):
    """Base of the store decorators: everything goes to ``inner``.

    Forwards **every** :class:`ChunkStore` method and counter — those with
    base-class defaults included, so a decorated store keeps its own
    verify path — plus, through ``__getattr__``, the backend's extras
    (``total_chunks``, ...), except :meth:`get_cached`, which answers None
    so that every read goes through the decorator's ``get``. Subclasses
    override only what they change; a new interface method is added here
    and nowhere else.
    """

    checksum_failures = property(lambda self: self.inner.checksum_failures)
    swept_tmp_files = property(lambda self: self.inner.swept_tmp_files)
    persistent = property(lambda self: self.inner.persistent)
    reads_overlap = property(lambda self: self.inner.reads_overlap)

    def __init__(self, inner: ChunkStore) -> None:
        self.inner = inner

    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        self.inner.put(disk_id, chunk_id, data)

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        return self.inner.get(disk_id, chunk_id)

    def get_cached(self, disk_id: int, chunk_id: ChunkId) -> Optional[np.ndarray]:
        """None: a decorator changes what a ``get`` does (faults, pacing,
        counting), so every read of a decorated store is its ``get``."""
        return None

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        self.inner.delete(disk_id, chunk_id)

    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.inner.contains(disk_id, chunk_id)

    def chunks_on_disk(self, disk_id: int) -> List[ChunkId]:
        return self.inner.chunks_on_disk(disk_id)

    def drop_disk(self, disk_id: int) -> int:
        return self.inner.drop_disk(disk_id)

    def sync(self, disks: Iterable[int] = ()) -> None:
        self.inner.sync(disks)

    def is_readable(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.inner.is_readable(disk_id, chunk_id)

    def verify_chunk(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.inner.verify_chunk(disk_id, chunk_id)

    def __getattr__(self, name: str):
        if name == "inner":  # not set yet (copy/unpickle): no recursion
            raise AttributeError(name)
        return getattr(self.inner, name)


class FaultyChunkStore(ForwardingChunkStore):
    """Decorates any store with injectable latent sector errors (UREs).

    A chunk marked bad raises :class:`LatentSectorError` on ``get`` while
    the rest of the disk keeps serving — the partial-failure mode a whole
    ``drop_disk`` cannot express. Rewriting a bad chunk (``put``) clears
    the mark, mirroring a sector remap on write.
    """

    def __init__(self, inner: ChunkStore) -> None:
        super().__init__(inner)
        self._bad: set = set()

    # ------------------------------------------------------------- injection
    def mark_bad(self, disk_id: int, chunk_id: ChunkId) -> None:
        """Poison one chunk; subsequent reads raise until it is rewritten."""
        self._bad.add((disk_id, chunk_id))

    def bad_chunks(self) -> List[Key]:
        return sorted(self._bad)

    def _check_sector(self, disk_id: int, chunk_id: ChunkId) -> None:
        if (disk_id, chunk_id) in self._bad:
            raise LatentSectorError(
                f"unreadable sector: chunk {chunk_id} on disk {disk_id}"
            )

    # -------------------------------------------------- what the marks change
    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        self._bad.discard((disk_id, chunk_id))
        self.inner.put(disk_id, chunk_id, data)

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        self._check_sector(disk_id, chunk_id)
        return self.inner.get(disk_id, chunk_id)

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        self._bad.discard((disk_id, chunk_id))
        self.inner.delete(disk_id, chunk_id)

    def is_readable(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return (disk_id, chunk_id) not in self._bad and self.inner.is_readable(
            disk_id, chunk_id
        )

    def verify_chunk(self, disk_id: int, chunk_id: ChunkId) -> bool:
        self._check_sector(disk_id, chunk_id)
        return self.inner.verify_chunk(disk_id, chunk_id)

    def drop_disk(self, disk_id: int) -> int:
        self._bad = {(d, c) for (d, c) in self._bad if d != disk_id}
        return self.inner.drop_disk(disk_id)


class FileChunkStore(ChunkStore):
    """Filesystem store: ``root/disk-<id>/s<stripe>.<shard>.chunk``.

    The layout mirrors the paper's experiment setup (one mounted directory
    per disk). Each chunk is **one file**: the payload, then a fixed
    :data:`TRAILER_SIZE`-byte trailer — a magic, the chunk's identity
    (stripe, shard), the payload length and a SHA-256 over all of it; a
    read also checks that identity against the chunk it asked for
    (:func:`_unwrap`). ``put`` fsyncs a uniquely named tmp file and renames
    it over the chunk, so a chunk is never visible without its digest;
    ``get`` and ``verify_chunk`` are one ``open``, and a torn, bit-flipped
    or misdirected chunk surfaces as
    :class:`ChunkChecksumError` (a :class:`LatentSectorError`). The rename
    is durable once :meth:`sync` fsynced the directory; a power cut before
    that leaves the chunk absent (or its old version) and a tmp to sweep.

    This is the one chunk-file format. A store of the earlier two-file
    layout (a trailer-less chunk beside a ``<chunk>.crc32c`` digest
    sidecar) is refused at open with a :class:`ConfigurationError` naming
    the sidecar; nothing migrates it. A chunk without a valid trailer is a
    checksum failure, and a damaged trailer never passes as anything else.

    ``reads_overlap`` is False: every read this repo measures is served
    from the page cache, so a ``get`` is this process's own CPU work and a
    round's reads gain nothing from separate threads. Spindles, where a
    cold read waits on the head, would want True — to be decided by a
    measurement on such a device. :meth:`get_cached` is ``get`` with
    ``nowait``: one ``RWF_NOWAIT`` read of a chunk of at most
    :data:`CACHED_READ_MAX_BYTES`, answered only from the page cache.

    Args:
        root: store directory, created if missing.
        durable: fsync files and directories on the write path. On by
            default; simulations that churn thousands of tiny chunks can
            switch it off and keep only the atomic-rename guarantee.
    """

    #: Files outlive the process whether or not they were fsync'd.
    persistent = True
    reads_overlap = False

    def __init__(self, root: "str | os.PathLike", durable: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        #: Checksum mismatches detected by this store instance.
        self.checksum_failures = 0
        #: Dead-writer ``*.tmp`` files removed by the startup sweep.
        self.swept_tmp_files = 0
        #: Per disk, its directory as a string ending in a separator (a
        #: read builds no ``Path``), and the disks whose directory exists.
        self._dir_names: Dict[int, str] = {}
        self._made_dirs: Set[int] = set()
        #: Disks whose directory entry a root fsync has made durable.
        self._rooted: Set[int] = set()
        #: Disks put to since the last :meth:`sync`. The sync lock is held
        #: across the fsyncs: a sync covers every put returned before it.
        self._dirty: Set[int] = set()
        self._dirty_lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._sweep_stale()

    def _sweep_stale(self) -> None:
        """Drop leftovers of crashed writers (``*.tmp``); refuse a store of
        the earlier two-file layout.

        A tmp name carries its writer's pid, and a live writer's tmp is
        left alone: two stores opening one directory must never delete
        each other's in-flight writes. Tmps of dead pids or unparseable
        names are garbage. A ``*.crc32c`` digest sidecar means the store
        was written in the pre-trailer layout: the open raises before it
        removes anything, and every file stays where it is.
        """
        stale = []
        for disk_dir in self.root.glob("disk-*"):
            if not disk_dir.is_dir():
                continue
            for p in disk_dir.iterdir():
                if p.name.endswith(".crc32c"):
                    raise ConfigurationError(
                        f"{p}: a chunk digest sidecar; this store uses the "
                        "pre-trailer layout (a chunk file plus a .crc32c "
                        "sidecar), which is no longer read"
                    )
                if p.name.endswith(".tmp") and not _tmp_writer_alive(p.name):
                    stale.append(p)
        for p in stale:
            p.unlink(missing_ok=True)
            self.swept_tmp_files += 1

    def _disk_dir(self, disk_id: int) -> Path:
        return self.root / f"disk-{disk_id:03d}"

    def _chunk_name(self, disk_id: int, chunk_id: ChunkId) -> str:
        """The one function that names a chunk's file."""
        base = self._dir_names.get(disk_id)
        if base is None:
            base = os.path.join(self._disk_dir(disk_id), "")
            self._dir_names[disk_id] = base
        return f"{base}s{chunk_id.stripe_index:06d}.{chunk_id.shard_index:03d}.chunk"

    def _chunk_path(self, disk_id: int, chunk_id: ChunkId) -> Path:
        return Path(self._chunk_name(disk_id, chunk_id))

    @staticmethod
    def _parse_name(name: str) -> Optional[ChunkId]:
        if not name.endswith(".chunk") or not name.startswith("s"):
            return None
        stem = name[1 : -len(".chunk")]
        parts = stem.split(".")
        if len(parts) != 2:
            return None
        try:
            return ChunkId(int(parts[0]), int(parts[1]))
        except ValueError:
            return None

    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.uint8))
        if arr.ndim != 1:
            raise StorageError(f"chunk {chunk_id} must be 1-D, got shape {arr.shape}")
        name = self._chunk_name(disk_id, chunk_id)
        if disk_id not in self._made_dirs:
            self._disk_dir(disk_id).mkdir(exist_ok=True)
            self._made_dirs.add(disk_id)
        # Pid and random token: two writers of one chunk never share a tmp;
        # the loser's rename simply lands second.
        tmp = f"{name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(arr.data)
            fh.write(_trailer(chunk_id, arr))
            if self.durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, name)
        if self.durable:
            with self._dirty_lock:
                self._dirty.add(disk_id)

    def sync(self, disks: Iterable[int] = ()) -> None:
        """fsync each disk directory a ``put`` renamed into since the last
        sync, and each of ``disks``, once — after one fsync of the store
        root when any of those directories, or any a ``put`` created, is
        new since the last one, so the directory itself survives too. An
        fsync error fails the caller's commit point and leaves every mark
        for the next sync."""
        if not self.durable:
            return
        disks = set(disks)
        with self._sync_lock:
            with self._dirty_lock:
                dirty, self._dirty = self._dirty, set()
            unrooted = (self._made_dirs | disks) - self._rooted
            try:
                if unrooted:
                    fsync_dir(self.root)
                for disk_id in sorted(dirty | disks):
                    fsync_dir(self._disk_dir(disk_id))
            except BaseException:
                with self._dirty_lock:
                    self._dirty |= dirty
                raise
            self._rooted |= unrooted

    def _checksum_failed(self, disk_id: int, chunk_id: ChunkId) -> ChunkChecksumError:
        self.checksum_failures += 1
        from repro.obs.context import current_registry

        current_registry().counter(
            "hdpsr_checksum_failures_total",
            "Chunk reads whose bytes disagreed with their digest",
        ).inc()
        return ChunkChecksumError(f"chunk {chunk_id} on disk {disk_id} failed digest verification")

    def _read_verified(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        """Read one chunk and return its verified payload, or raise. One
        read: a ``put`` renames a whole file in, so a mismatch is stable."""
        try:
            raw = _read_file(self._chunk_name(disk_id, chunk_id))
        except FileNotFoundError:
            raise ChunkNotFoundError(f"chunk {chunk_id} not on disk {disk_id}") from None
        payload = _unwrap(raw, chunk_id)
        if payload is None:
            raise self._checksum_failed(disk_id, chunk_id)
        return payload

    def get(
        self, disk_id: int, chunk_id: ChunkId, nowait: bool = False
    ) -> Optional[np.ndarray]:
        """The verified payload, or raise; with ``nowait``, what
        :meth:`get_cached` answers (``nowait`` keeps every chunk read
        under this one name)."""
        if not nowait:
            return self._read_verified(disk_id, chunk_id)
        raw = _read_cached(self._chunk_name(disk_id, chunk_id))
        return None if raw is None else _unwrap(raw, chunk_id)

    def get_cached(self, disk_id: int, chunk_id: ChunkId) -> Optional[np.ndarray]:
        """The payload when the chunk is at most :data:`CACHED_READ_MAX_BYTES`,
        wholly in the page cache and vouched for by its trailer; else None
        (a missing, uncached, short or corrupt chunk alike)."""
        return self.get(disk_id, chunk_id, nowait=True)

    def verify_chunk(self, disk_id: int, chunk_id: ChunkId) -> bool:
        """Re-read one chunk against its digest: True, or
        :class:`ChunkChecksumError` / :class:`ChunkNotFoundError`."""
        self._read_verified(disk_id, chunk_id)
        return True

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        name = self._chunk_name(disk_id, chunk_id)
        try:
            os.unlink(name)
        except FileNotFoundError:
            raise ChunkNotFoundError(f"chunk {chunk_id} not on disk {disk_id}") from None

    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return os.path.exists(self._chunk_name(disk_id, chunk_id))

    def chunks_on_disk(self, disk_id: int) -> List[ChunkId]:
        disk_dir = self._disk_dir(disk_id)
        if not disk_dir.exists():
            return []
        ids = (self._parse_name(p.name) for p in disk_dir.iterdir())
        return sorted(c for c in ids if c is not None)

    def drop_disk(self, disk_id: int) -> int:
        disk_dir = self._disk_dir(disk_id)
        if not disk_dir.exists():
            return 0
        lost = 0
        for path in list(disk_dir.iterdir()):
            if path.suffix == ".chunk":
                path.unlink()
                lost += 1
        return lost


class ShardedChunkStore(ChunkStore):
    """One logical store routed across independent backend shards.

    Disk ``d`` lives entirely on shard ``d % num_shards``, so every shard
    owns a disjoint subset of disks (directories, when file-backed) and
    concurrent puts to different shards never touch the same directory —
    the layout :class:`repro.service.RepairService` multiplexes concurrent
    repairs over.
    """

    def __init__(self, shards: Sequence[ChunkStore]) -> None:
        if not shards:
            raise StorageError("a sharded store needs at least one shard")
        self.shards: List[ChunkStore] = list(shards)

    @classmethod
    def from_root(
        cls, root: "str | os.PathLike", num_shards: int = 4, durable: bool = True
    ) -> "ShardedChunkStore":
        """File-backed shards: ``root/shard-<i>/disk-<id>/...``."""
        if num_shards < 1:
            raise StorageError(f"num_shards must be >= 1, got {num_shards}")
        base = Path(root)
        return cls([
            FileChunkStore(base / f"shard-{i:02d}", durable=durable)
            for i in range(num_shards)
        ])

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, disk_id: int) -> int:
        """Which shard owns ``disk_id``."""
        return disk_id % len(self.shards)

    def shard_for(self, disk_id: int) -> ChunkStore:
        return self.shards[self.shard_of(disk_id)]

    @property
    def persistent(self) -> bool:
        """Only when every shard is: a repair's spares span shards."""
        return all(s.persistent for s in self.shards)

    @property
    def reads_overlap(self) -> bool:
        """When any shard's do: one waiting shard is worth the overlap."""
        return any(s.reads_overlap for s in self.shards)

    @property
    def checksum_failures(self) -> int:
        """Checksum mismatches across every shard (file-backed shards only)."""
        return sum(s.checksum_failures for s in self.shards)

    @property
    def swept_tmp_files(self) -> int:
        """Dead-writer tmp files swept at startup, across every shard."""
        return sum(s.swept_tmp_files for s in self.shards)

    # ------------------------------------------------------------ delegation
    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        self.shard_for(disk_id).put(disk_id, chunk_id, data)

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        return self.shard_for(disk_id).get(disk_id, chunk_id)

    def get_cached(self, disk_id: int, chunk_id: ChunkId) -> Optional[np.ndarray]:
        return self.shard_for(disk_id).get_cached(disk_id, chunk_id)

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        self.shard_for(disk_id).delete(disk_id, chunk_id)

    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.shard_for(disk_id).contains(disk_id, chunk_id)

    def chunks_on_disk(self, disk_id: int) -> List[ChunkId]:
        return self.shard_for(disk_id).chunks_on_disk(disk_id)

    def drop_disk(self, disk_id: int) -> int:
        return self.shard_for(disk_id).drop_disk(disk_id)

    def sync(self, disks: Iterable[int] = ()) -> None:
        disks = set(disks)
        for i, shard in enumerate(self.shards):
            shard.sync({d for d in disks if self.shard_of(d) == i})

    def is_readable(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.shard_for(disk_id).is_readable(disk_id, chunk_id)

    def verify_chunk(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.shard_for(disk_id).verify_chunk(disk_id, chunk_id)

    def __repr__(self) -> str:
        return f"ShardedChunkStore({len(self.shards)} shards)"
