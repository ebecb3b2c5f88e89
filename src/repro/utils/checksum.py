"""CRC32C (Castagnoli) checksums for the repair journal and its neighbours.

CRC32C is the polynomial used by iSCSI, ext4 metadata, and most storage
systems that frame records with a checksum — it detects the burst and
bit-flip corruption patterns disks actually produce. It frames every WAL
record and lease record and scores the cluster's hash ring. Chunk files
carry a SHA-256 digest in their trailer instead
(:func:`repro.hdss.store.chunk_digest`), so a chunk read or write never
passes through this module. Most frames are small, but a journal over a
volatile store (``InMemoryChunkStore``) carries each stripe's rebuilt
chunks in its ``stripe_done`` record (:meth:`RepairJob.record_writebacks`),
so whole chunks are hashed once when the record is written and once more
when a resume reads it back.

Two kernels, one answer: inputs under :data:`_VECTOR_MIN` bytes, and the
sub-row tail of longer ones, take a scalar slicing-by-4 loop, where
interpreter overhead beats NumPy call overhead; whole 16-byte rows of a
longer input take a row-parallel NumPy kernel. Measured on a 2-vCPU Xeon
(CPython 3.11): the NumPy kernel runs 200-220 MB/s at 64 KiB, 110-130 MB/s
at 16 KiB and 40 MB/s at 4 KiB, against 11-13 MB/s for the scalar loop;
``hdpsr repair --journal`` over an in-memory store with 4 MiB chunks takes
about 4 s with it and 7 s on the scalar loop alone.

The NumPy kernel leans on the CRC register being GF(2)-linear in the
data. The raw register of a 16-byte row started from zero is the XOR of
sixteen lookups, one per byte position, each in that position's own
256-entry table (the byte followed by the zero bytes the rest of the row
stands for). So sixteen gathers XORed into a running register, one per
byte column, do it for every row of the buffer at once. A log-tree then
folds neighbours pairwise: ``left`` advanced through the zero bytes
``right`` covers, XOR ``right``. Advancing a register through ``n`` zero
bytes is again four such lookups (for ``n = 4`` in the last four position
tables), and the table for ``2n`` is the table for ``n`` applied to
itself, so only spans ``4 * 2**level`` ever exist, whatever lengths
callers feed in; rows enter the tree at the level whose span is one row.
The incoming ``value`` rides along as one more register in front of the
first row.

Two things keep its speed steady from call to call, which the daemon's
latency and the e2e benchmark's spread bounds both need. What a step
touches lives in L1: a gather reads one 1 KiB table (all sixteen are
16 KiB), and a step of 1024 rows holds 16 KiB of input, 8 KiB of gather
indices and 8 KiB of registers, 33 KiB of this box's 48 KiB, however
large the buffer is. Steps of 4096 rows stream from L2 and are faster
alone (285 against 215 MB/s at 64 KiB, NumPy's per-call overhead being a
third of a 1024-row step) and by 14 % end to end at 64 KiB chunks, but
not steadily: over 16 benchmark runs their rates kept a slope of +0.1 to
+0.4 against the host's own speed and two landed 35-40 % above the
median, where 15 runs of this one stayed within 12 % of theirs. Gathering
a whole row at once from one wide table (one ``take`` and an XOR-reduce
along the row) is the same arithmetic and measured 114 MB/s at 16-byte
rows, the reduce over a short axis being the slow part; it needs 64-byte
rows to reach 225, and from 32 bytes up its table and a step's gathered
copy leave L1 (PR 13's 256-byte rows wandered against the host by
25-55 %). Column by column, wider rows buy nothing: the work is one
lookup per byte either way, and 32- and 64-byte rows measured 240 and
243 MB/s. And one thread is in the kernel at a time: NumPy drops the GIL
inside every gather, so threads hashing side by side hand it back and
forth dozens of times a chunk (three threads over 60 MB of 16 KiB
chunks: 54 000-185 000 context switches, 0.7-2.1 s of system time and
18-41 MB/s in total without the lock; 900-3 400 switches, under 0.1 s
and 62-116 MB/s when they take turns).
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

#: Reflected CRC32C (Castagnoli) polynomial.
_POLY = 0x82F63B78
_MASK = 0xFFFFFFFF

#: Below this many bytes the scalar loop wins (measured crossover: 64 us
#: either way at 850-900 bytes; the vector kernel's floor is ~60 us of NumPy
#: calls, most of them in the fold).
_VECTOR_MIN = 896
#: Bytes per row of the vector kernel: one table per byte position, 16 KiB
#: together. Decided once, by measurement (module docstring); not a knob.
_ROW = 16
#: Rows hashed per step: 16 KiB of input and 16 KiB of temporaries, however
#: large the buffer is. Decided with the row width, by the same measurement.
_STEP_ROWS = 1024
#: Fold levels kept, and the one rows enter at (its span, ``4 * 2**level``
#: bytes, is one row): enough for 2**30 rows (16 GiB).
_LEVELS = 32
_ROW_LEVEL = (_ROW // 4).bit_length() - 1

_KERNEL_LOCK = threading.Lock()


def _advance(
    table: np.ndarray, columns: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``table[0][columns[:, 0]] ^ table[1][columns[:, 1]] ^ ...``: one
    256-entry gather per byte column, XORed into a running register.

    With a shift table, ``columns`` is the ``(n, 4+)`` little-endian uint8
    view of ``n`` registers and the result is each pushed through the zero
    bytes the table stands for. With the position table and a zero start
    ``columns`` is data: the result is each row's raw register.
    """
    acc = table[0].take(columns[:, 0], out=out, mode="wrap")
    for j in range(1, len(table)):
        acc ^= table[j].take(columns[:, j], mode="wrap")
    return acc


def _build_tables() -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """``(position, shifts)``: ``position[j][b]`` is byte ``b`` followed by
    ``_ROW - 1 - j`` zero bytes, and ``shifts[level]`` (four such rows)
    advances a register ``4 * 2**level`` zero bytes. 140 KiB, built at
    import in about a millisecond."""
    # after[j][b]: the register of byte b followed by j zero bytes.
    after = [np.arange(256, dtype="<u4")]
    for _ in range(8):
        after[0] = (after[0] >> 1) ^ (_POLY * (after[0] & 1))
    for _ in range(_ROW - 1):
        after.append(after[0][after[-1] & 0xFF] ^ (after[-1] >> 8))
    # A row's first byte has the most zero bytes still to cross, and so has
    # a register's lowest byte: the last four positions are the table that
    # advances a register 4 zero bytes.
    position = np.stack(after[::-1])
    shifts = [position[-4:]]
    while len(shifts) < _LEVELS:
        half = shifts[-1]  # applied to itself: twice the span
        shifts.append(_advance(half, half.view(np.uint8).reshape(-1, 4)).reshape(4, 256))
    return position, tuple(shifts)


_POSITION, _SHIFTS = _build_tables()
#: Slicing-by-4 tables as Python lists: ``_T<j>[b]`` is byte ``b`` followed
#: by ``j`` zero bytes.
_T0, _T1, _T2, _T3 = _SHIFTS[0][::-1].tolist()


def _as_uint8(data: "bytes | bytearray | memoryview | np.ndarray") -> np.ndarray:
    """``data``'s C-order bytes as a 1-D uint8 array, without copying any
    C-contiguous buffer."""
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    return np.frombuffer(data, dtype=np.uint8)


def _crc32c_sliced(data, value: int = 0) -> int:
    """Scalar slicing-by-4: fold little-endian words, byte-walk the tail."""
    t0, t1, t2, t3 = _T0, _T1, _T2, _T3
    buf = _as_uint8(data)
    crc = ~value & _MASK
    split = buf.size & ~3
    for word in buf[:split].view("<u4").tolist():
        word ^= crc
        crc = (
            t3[word & 0xFF]
            ^ t2[(word >> 8) & 0xFF]
            ^ t1[(word >> 16) & 0xFF]
            ^ t0[word >> 24]
        )
    for byte in buf[split:].tolist():
        crc = t0[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return ~crc & _MASK


def _crc32c_vector(buf: np.ndarray, value: int = 0) -> int:
    """Row-parallel CRC32C of a uint8 array holding whole ``_ROW``-byte rows."""
    rows = buf.reshape(-1, _ROW)
    count = rows.shape[0]
    with _KERNEL_LOCK:
        # A power of two with at least one slot ahead of the first row:
        # the incoming register sits there, and zero registers in front of
        # it fold to zero, so no row count needs special-casing.
        regs = np.zeros(1 << count.bit_length(), dtype="<u4")
        regs[-count - 1] = ~value & _MASK
        live = regs[-count:]
        for start in range(0, count, _STEP_ROWS):
            stop = start + _STEP_ROWS
            _advance(_POSITION, rows[start:stop], out=live[start:stop])
        level = _ROW_LEVEL
        while regs.size > 1:
            # Neighbours pairwise: columns 0-3 of a pair are its left register.
            right = regs[1::2]
            regs = _advance(_SHIFTS[level], regs.view(np.uint8).reshape(-1, 8))
            regs ^= right
            level += 1
    return ~int(regs[0]) & _MASK


def _crc32c_numpy(buf: np.ndarray, value: int) -> int:
    """Whole rows of a large enough buffer through the vector kernel, the
    rest through the scalar loop."""
    whole = buf.size & -_ROW if buf.size >= _VECTOR_MIN else 0
    if whole:
        value = _crc32c_vector(buf[:whole], value)
    if whole < buf.size:
        value = _crc32c_sliced(buf[whole:], value)
    return value


def crc32c(data: "bytes | bytearray | memoryview | np.ndarray", value: int = 0) -> int:
    """CRC32C of ``data``, optionally continuing from a previous ``value``.

    Accepts any C-contiguous buffer without copying it; other ndarrays
    (strided, or not uint8) are hashed over their C-order bytes. Returns an
    unsigned 32-bit integer.
    """
    return _crc32c_numpy(_as_uint8(data), value)
