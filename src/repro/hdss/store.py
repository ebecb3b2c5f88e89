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
block (the asyncio repair service) run it in a worker thread.
"""

from __future__ import annotations

import abc
import hashlib
import os
import string
import uuid
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ec.stripe import ChunkId
from repro.errors import (
    ChunkChecksumError,
    ChunkNotFoundError,
    LatentSectorError,
    StorageError,
)
from repro.journal.wal import fsync_dir
from repro.utils.checksum import crc32c

Key = Tuple[int, ChunkId]

#: Suffix of the per-chunk digest sidecar files (a historical name; see
#: :class:`FileChunkStore`).
CRC_SUFFIX = ".crc32c"


def _is_crc_sidecar(sidecar: str) -> bool:
    """Eight hex digits: a CRC32C sidecar, the format ``put`` wrote before
    SHA-256, in any case (``int(text, 16)`` read it)."""
    return len(sidecar) == 8 and all(c in string.hexdigits for c in sidecar)


def sidecar_digest(
    payload: "bytes | np.ndarray", sidecar: Optional[str] = None
) -> str:
    """The hex digest ``payload`` must carry, in ``sidecar``'s format.

    New sidecars (``sidecar`` None, or anything but eight hex digits) hold
    the lowercase SHA-256 hexdigest: ``hashlib`` hashes in C and releases
    the GIL for buffers over 2 KiB, and a 256-bit digest misses a given
    corruption with probability 2**-256 whatever the error pattern. An
    eight-digit sidecar is a CRC32C the earlier format wrote, answered as
    ``%08x`` of ``payload``'s CRC32C.
    """
    if sidecar is not None and _is_crc_sidecar(sidecar):
        return f"{crc32c(payload):08x}"
    return hashlib.sha256(payload).hexdigest()


def _write_tmp(
    path: Path, payload: "bytes | memoryview", *, durable: bool = True
) -> Path:
    """Write ``payload`` to a unique (fsync'd) tmp file beside ``path``.

    The caller renames it over ``path``. The tmp name carries the pid and a
    random token so two concurrent writers of the same path (hedged read
    racing a write-back) can never tear each other's tmp file; the loser's
    rename simply lands second.
    """
    tmp = path.parent / f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        if durable:
            fh.flush()
            os.fsync(fh.fileno())
    return tmp


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


def _tmp_writer_pid(name: str) -> Optional[int]:
    """Writer pid encoded in a tmp-file name, or None for legacy names."""
    parts = name[: -len(".tmp")].rsplit(".", 2)
    if len(parts) == 3 and parts[1].isdigit():
        return int(parts[1])
    return None


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # pragma: no cover - platform quirk
        return True
    return True


class ChunkStore(abc.ABC):
    """Abstract chunk-addressed byte store."""

    #: Checksum mismatches detected, and crash leftovers (dead-writer tmp
    #: files, orphan sidecars) swept at open; zero on backends with neither.
    checksum_failures = 0
    swept_tmp_files = 0
    orphan_sidecars = 0

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
        side by side only when they overlap; otherwise one worker call
        reads, verifies and folds the whole round."""
        return False

    @abc.abstractmethod
    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        """Write one chunk (uint8 array) to ``disk_id``."""

    @abc.abstractmethod
    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        """Read one chunk; raises :class:`ChunkNotFoundError` if absent."""

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

    def iter_all(self) -> Iterator[Tuple[int, ChunkId]]:
        """Iterate (disk_id, chunk_id) over the whole store."""
        for disk_id, chunks in self._data.items():
            for chunk_id in chunks:
                yield disk_id, chunk_id


class ForwardingChunkStore(ChunkStore):
    """Base of the store decorators: everything goes to ``inner``.

    Forwards **every** :class:`ChunkStore` method and counter — those with
    base-class defaults included, so a decorated store keeps its own
    verify path — plus, through ``__getattr__``, the backend's extras
    (``total_chunks``, ...). Subclasses override only what they change; a
    new interface method is added here and nowhere else.
    """

    checksum_failures = property(lambda self: self.inner.checksum_failures)
    swept_tmp_files = property(lambda self: self.inner.swept_tmp_files)
    orphan_sidecars = property(lambda self: self.inner.orphan_sidecars)
    persistent = property(lambda self: self.inner.persistent)
    reads_overlap = property(lambda self: self.inner.reads_overlap)

    def __init__(self, inner: ChunkStore) -> None:
        self.inner = inner

    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        self.inner.put(disk_id, chunk_id, data)

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        return self.inner.get(disk_id, chunk_id)

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        self.inner.delete(disk_id, chunk_id)

    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.inner.contains(disk_id, chunk_id)

    def chunks_on_disk(self, disk_id: int) -> List[ChunkId]:
        return self.inner.chunks_on_disk(disk_id)

    def drop_disk(self, disk_id: int) -> int:
        return self.inner.drop_disk(disk_id)

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
    per disk). Writes are crash-consistent: the chunk bytes and their
    digest sidecar (``<chunk>.crc32c``) each go to a uniquely named tmp
    file that is fsync'd, then the sidecar is renamed into place, then the
    chunk, then the parent directory is fsync'd. ``get`` verifies the pair
    — a torn, stale, or bit-flipped chunk surfaces as
    :class:`ChunkChecksumError` (a :class:`LatentSectorError`), never as
    silently wrong bytes.

    The ``.crc32c`` suffix is the layout's historical name. ``put`` writes
    a SHA-256 hexdigest (64 hex digits); a sidecar of 8 hex digits is a
    CRC32C an earlier ``put`` wrote, still verified as such and replaced
    by SHA-256 on the chunk's next ``put``. See :func:`sidecar_digest`.

    A crash between the two renames leaves a sidecar with no chunk (a first
    write: the open-time sweep removes it, ``contains`` is false and the
    chunk is re-repaired) or a new sidecar beside the old chunk (an
    overwrite: verification *fails*, which degrades the stripe and triggers
    a re-repair — the safe direction). A chunk put by this store is never
    visible without its sidecar; sidecar-less chunks (legacy layouts,
    foreign tooling) are served unverified.

    ``reads_overlap`` is False: every read this repo measures is served
    from the page cache, so a ``get`` is this process's own CPU work (the
    read syscall and the digest) and a round's reads gain nothing from
    separate threads. A deployment on spindles, where a cold read waits on
    the head, would want True — decided by a measurement on such a device,
    which this repo cannot make yet.

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
        #: Orphan sidecars (no chunk beside them) removed by the sweep.
        self.orphan_sidecars = 0
        #: Per disk, its directory as a string ending in a separator: a
        #: read names its chunk's file without building a ``Path``.
        self._dir_names: Dict[int, str] = {}
        self._sweep_stale()

    def _sweep_stale(self) -> None:
        """Drop leftovers of crashed writers: ``*.tmp`` and orphan sidecars.

        Tmp names never end in ``.chunk`` so ``_parse_name`` cannot misread
        them, but sweeping keeps crashed runs from accumulating garbage and
        removes sidecars whose chunk rename never happened.

        Safe under concurrent writers: tmp names carry the writer's pid
        (see :func:`_write_tmp`), and tmps whose writer process is still
        alive are left alone — two stores (or a sharded service's tasks)
        opening the same disk directory must never delete each other's
        in-flight writes. Only tmps from dead pids, or with unparseable
        legacy names, are garbage; and a sidecar is an orphan only when no
        live writer holds a tmp file of its chunk.
        """
        for disk_dir in self.root.glob("disk-*"):
            if not disk_dir.is_dir():
                continue
            for p in disk_dir.iterdir():
                if p.name.endswith(".tmp"):
                    pid = _tmp_writer_pid(p.name)
                    if pid is not None and _pid_alive(pid):
                        continue  # a live writer still owns this tmp
                    p.unlink(missing_ok=True)
                    self.swept_tmp_files += 1
                elif p.name.endswith(CRC_SUFFIX):
                    chunk = p.with_name(p.name[: -len(CRC_SUFFIX)])
                    if chunk.exists() or self._being_written(chunk):
                        continue
                    if not chunk.exists():  # did not land while we looked
                        p.unlink(missing_ok=True)
                        self.orphan_sidecars += 1

    @staticmethod
    def _being_written(chunk: Path) -> bool:
        """Whether a live writer holds a tmp file of ``chunk`` — it may be
        between :meth:`put`'s two renames, its sidecar already in place."""
        for tmp in chunk.parent.glob(f"{chunk.name}.*.tmp"):
            pid = _tmp_writer_pid(tmp.name)
            if pid is not None and _pid_alive(pid):
                return True
        return False

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

    def _sidecar_path(self, path: Path) -> Path:
        return path.with_name(path.name + CRC_SUFFIX)

    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.uint8))
        if arr.ndim != 1:
            raise StorageError(f"chunk {chunk_id} must be 1-D, got shape {arr.shape}")
        path = self._chunk_path(disk_id, chunk_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        sidecar = self._sidecar_path(path)
        tmp_chunk = _write_tmp(path, arr.data, durable=self.durable)
        tmp_sidecar = _write_tmp(
            sidecar, f"{sidecar_digest(arr)}\n".encode("ascii"), durable=self.durable
        )
        # Sidecar first, chunk second, back to back: a chunk is never
        # visible without the sidecar that vouches for it.
        os.replace(tmp_sidecar, sidecar)
        os.replace(tmp_chunk, path)
        if self.durable:
            fsync_dir(path.parent)

    def _read_sidecar(self, name: str) -> Optional[str]:
        """The digest chunk file ``name``'s sidecar holds, stripped; a
        CRC32C one as ``%08x`` of ``int(text, 16)``, whatever case it was
        written in."""
        try:
            with open(name + CRC_SUFFIX, "rb") as fh:
                text = fh.read().decode("utf-8", errors="replace").strip()
        except OSError:
            return None  # no sidecar: legacy chunk, served unverified
        return f"{int(text, 16):08x}" if _is_crc_sidecar(text) else text

    def _checksum_failed(self, disk_id: int, chunk_id: ChunkId) -> None:
        self.checksum_failures += 1
        from repro.obs.context import current_registry

        current_registry().counter(
            "hdpsr_checksum_failures_total",
            "Chunk reads whose bytes disagreed with their digest sidecar",
        ).inc()
        raise ChunkChecksumError(
            f"chunk {chunk_id} on disk {disk_id} failed digest verification"
        )

    def _read_verified(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        """Read payload + sidecar as a consistent pair, or raise.

        A concurrent ``put`` replaces the chunk file and its sidecar with
        two separate renames, so a single racing read can pair new bytes
        with the old sidecar (or vice versa). A mismatch is therefore
        re-read once — the second pass sees the settled pair — and only a
        *stable* mismatch counts as corruption.
        """
        name = self._chunk_name(disk_id, chunk_id)
        for attempt in (0, 1):
            try:
                payload = _read_file(name)
            except FileNotFoundError:
                raise ChunkNotFoundError(
                    f"chunk {chunk_id} not on disk {disk_id}"
                ) from None
            expected = self._read_sidecar(name)
            if expected is None or sidecar_digest(payload, expected) == expected:
                return payload
        self._checksum_failed(disk_id, chunk_id)
        raise AssertionError("unreachable")  # pragma: no cover

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        return self._read_verified(disk_id, chunk_id)

    def verify_chunk(self, disk_id: int, chunk_id: ChunkId) -> bool:
        """Re-read one chunk and check it against its sidecar.

        Used to certify written-back recovered chunks end to end. Returns
        True for a matching (or sidecar-less) chunk; raises
        :class:`ChunkChecksumError` on a mismatch and
        :class:`ChunkNotFoundError` when the chunk is absent.
        """
        self._read_verified(disk_id, chunk_id)
        return True

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        path = self._chunk_path(disk_id, chunk_id)
        try:
            path.unlink()
        except FileNotFoundError:
            raise ChunkNotFoundError(
                f"chunk {chunk_id} not on disk {disk_id}"
            ) from None
        self._sidecar_path(path).unlink(missing_ok=True)

    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self._chunk_path(disk_id, chunk_id).exists()

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
                self._sidecar_path(path).unlink(missing_ok=True)
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

    @property
    def orphan_sidecars(self) -> int:
        """Orphan sidecars swept at startup, across every shard."""
        return sum(s.orphan_sidecars for s in self.shards)

    # ------------------------------------------------------------ delegation
    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        self.shard_for(disk_id).put(disk_id, chunk_id, data)

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        return self.shard_for(disk_id).get(disk_id, chunk_id)

    def delete(self, disk_id: int, chunk_id: ChunkId) -> None:
        self.shard_for(disk_id).delete(disk_id, chunk_id)

    def contains(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.shard_for(disk_id).contains(disk_id, chunk_id)

    def chunks_on_disk(self, disk_id: int) -> List[ChunkId]:
        return self.shard_for(disk_id).chunks_on_disk(disk_id)

    def drop_disk(self, disk_id: int) -> int:
        return self.shard_for(disk_id).drop_disk(disk_id)

    def is_readable(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.shard_for(disk_id).is_readable(disk_id, chunk_id)

    def verify_chunk(self, disk_id: int, chunk_id: ChunkId) -> bool:
        return self.shard_for(disk_id).verify_chunk(disk_id, chunk_id)

    def __repr__(self) -> str:
        return f"ShardedChunkStore({len(self.shards)} shards)"
