"""Framed, checksummed, append-only write-ahead log segments.

Record frame layout (all integers little-endian):

====================  =====================================================
``magic``   4 bytes   ``b"HDJ1"``
``hlen``    4 bytes   length of the JSON header
``blen``    4 bytes   length of the binary body
``crc``     4 bytes   CRC32C over ``header + body``
``header``  hlen      UTF-8 JSON: ``{"type": ..., "meta": {...},
                      "blobs": [[name, size], ...]}``
``body``    blen      the blobs' raw bytes, concatenated in header order
====================  =====================================================

Whatever chunk bytes a record does carry (a volatile store's rebuilt
payloads) travel in the body — no base64 inflation.

Durability contract: :meth:`WALWriter.commit` flushes and fsyncs the
active segment (:meth:`WALWriter.flush` only hands it to the OS: safe
against the death of the process, not of the machine); creating a segment
fsyncs the journal directory so the new name survives power loss. The
reader validates each frame's CRC and treats the first short or corrupt
frame as the log's end (a torn tail from a crash mid-append), never as an
error — everything before it is intact by construction.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import JournalError
from repro.utils.checksum import crc32c

MAGIC = b"HDJ1"
_HEADER_FMT = "<4sIII"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

#: Rotate to a fresh segment once the active one crosses this many bytes.
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

_SEGMENT_GLOB = "seg-*.wal"


def _segment_name(index: int) -> str:
    return f"seg-{index:08d}.wal"


def _segment_index(path: Path) -> int:
    try:
        return int(path.stem.split("-", 1)[1])
    except (IndexError, ValueError):
        raise JournalError(f"not a journal segment name: {path.name}") from None


def list_segments(root: Path) -> List[Path]:
    """Journal segments under ``root`` in append order."""
    return sorted(root.glob(_SEGMENT_GLOB), key=_segment_index)


@dataclass
class WALRecord:
    """One decoded journal record."""

    type: str
    meta: Dict[str, object]
    blobs: Dict[str, bytes] = field(default_factory=dict)


def encode_record(record: WALRecord) -> bytes:
    """Serialize a record into one self-checking frame."""
    layout: List[Tuple[str, int]] = [(n, len(b)) for n, b in record.blobs.items()]
    header = json.dumps(
        {"type": record.type, "meta": record.meta, "blobs": layout},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    body = b"".join(record.blobs[name] for name, _ in layout)
    crc = crc32c(body, crc32c(header))
    return struct.pack(_HEADER_FMT, MAGIC, len(header), len(body), crc) + header + body


def decode_stream(stream: io.BufferedIOBase) -> Iterator[WALRecord]:
    """Yield records until EOF or the first torn/corrupt frame."""
    while True:
        prefix = stream.read(_HEADER_SIZE)
        if len(prefix) < _HEADER_SIZE:
            return  # clean EOF or torn length prefix
        magic, hlen, blen, crc = struct.unpack(_HEADER_FMT, prefix)
        if magic != MAGIC:
            return  # garbage tail
        payload = stream.read(hlen + blen)
        if len(payload) < hlen + blen:
            return  # torn frame: crash mid-append
        view = memoryview(payload)
        header, body = view[:hlen], view[hlen:]
        if crc32c(body, crc32c(header)) != crc:
            return  # bit rot or torn rewrite; stop at last good record
        try:
            decoded = json.loads(str(header, "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        blobs: Dict[str, bytes] = {}
        offset = 0
        for name, size in decoded.get("blobs", []):
            blobs[str(name)] = bytes(body[offset : offset + int(size)])
            offset += int(size)
        yield WALRecord(
            type=str(decoded["type"]), meta=dict(decoded.get("meta", {})), blobs=blobs
        )


class WALWriter:
    """Append-only writer over rotated segment files.

    Records accumulate in the process's buffer until :meth:`flush` (visible
    to :class:`WALReader`, survives this process) or :meth:`commit` (durable:
    flushed and fsync'd). A commit covers everything appended before it, so
    callers batch every record of one checkpoint and commit once.

    Thread-safe: one lock serialises append, commit, close and the segment
    rotation inside append, so concurrent appenders can never flush or
    fsync a handle that a rotation just closed. Frames are encoded (and
    checksummed) outside the lock. A commit makes durable everything
    appended before it, by any thread.
    """

    def __init__(
        self,
        root: "str | os.PathLike",
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        durable: bool = True,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.durable = durable
        self.records_written = 0
        self.bytes_written = 0
        self.commits = 0
        existing = list_segments(self.root)
        self._seg_index = _segment_index(existing[-1]) + 1 if existing else 0
        self._fh: Optional[io.BufferedWriter] = None
        self._fh_bytes = 0
        self._lock = threading.Lock()

    def _open_segment(self) -> io.BufferedWriter:
        if self._fh is None or self._fh_bytes >= self.segment_bytes:
            self._close_segment()
            path = self.root / _segment_name(self._seg_index)
            self._seg_index += 1
            self._fh = open(path, "ab")
            self._fh_bytes = 0
            if self.durable:
                fsync_dir(self.root)
        return self._fh

    def append(self, record: WALRecord) -> int:
        """Buffer one record onto the active segment (durable at commit);
        returns the bytes its frame added (prefix, header and blobs)."""
        frame = encode_record(record)
        with self._lock:
            self._open_segment().write(frame)
            self._fh_bytes += len(frame)
            self.records_written += 1
            self.bytes_written += len(frame)
        return len(frame)

    def _sync(self, fsync: bool = True) -> None:
        if self._fh is not None:
            self._fh.flush()
            if fsync and self.durable:
                os.fsync(self._fh.fileno())

    def flush(self) -> None:
        """Hand everything appended so far to the OS, without an fsync."""
        with self._lock:
            self._sync(fsync=False)

    def commit(self) -> None:
        """Flush and fsync everything appended so far."""
        with self._lock:
            self._sync()
            self.commits += 1

    def _close_segment(self) -> None:
        self._sync()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def close(self) -> None:
        with self._lock:
            self._close_segment()

    def __enter__(self) -> "WALWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class WALReader:
    """Replays every intact record across all segments, in append order."""

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root)

    def __iter__(self) -> Iterator[WALRecord]:
        for segment in list_segments(self.root):
            with open(segment, "rb") as fh:
                yield from decode_stream(fh)


def fsync_dir(path: Path) -> None:
    """fsync a directory so a just-created or just-renamed entry survives
    power loss (the store's and the lease files' renames use it too)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
