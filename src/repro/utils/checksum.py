"""CRC32C (Castagnoli) checksums for chunk integrity and the repair journal.

CRC32C is the polynomial used by iSCSI, ext4 metadata, and most storage
systems that pair data with sidecar checksums — it detects the burst and
bit-flip corruption patterns disks actually produce. Every chunk read
verifies a sidecar and every journal frame carries one, so this is the
hottest loop of the repair service.

Backend selection happens once, at import: a native ``crc32c`` module
(the optional ``fast`` extra) is used when importable, otherwise the
NumPy kernel below. :data:`BACKEND` names the one in use; there is no
flag to override it. On-disk sidecars, WAL frames and lease records are
the same whichever computed them.

The NumPy kernel leans on the CRC register being GF(2)-linear in the
data. One slicing-by-4 step — four 256-entry lookups, XORed — gives the
raw register of a 4-byte word started from zero, so one gather and one
XOR-reduce do it for every word of the buffer at once. A log-tree then
folds neighbours pairwise: ``left`` advanced through the zero bytes
``right`` covers, XOR ``right``. Advancing a register through ``n`` zero
bytes is again four lookups (for ``n = 4`` in the very table that hashes
a word), and the table for ``2n`` is the table for ``n`` applied to
itself, so only spans ``4 * 2**level`` ever exist, whatever lengths
callers feed in. The incoming ``value`` rides along as one more register
in front of the first word. Inputs under :data:`_VECTOR_MIN` bytes and the
sub-word tail stay on a scalar slicing-by-4 loop, where interpreter
overhead beats NumPy call overhead.

Two things keep its speed steady from call to call, which the daemon's
latency and the e2e benchmark's spread bounds both need. Every table a
step touches is 4 KiB, so the working set lives in L1: a 256-byte row
with one 256-entry table per byte position measured 9x faster alone,
but its quarter-MiB table falls out of cache whenever a neighbour
shares the core, and its speed then wanders against the host's by
25-55 % more than interpreter-bound code does. (Rows of 8 to 64 bytes
keep the property and measured 77-292 MB/s; they wait for a benchmark
that can resolve such a gain: ROADMAP, open item 1.) And one thread
is in the kernel at a time: NumPy drops the GIL inside every gather, so
threads hashing side by side hand it back and forth dozens of times a
chunk (three threads on 16 KiB chunks: 57 000 context switches and half
a second of system time for work that needs 2 400 and none when they
take turns, at the same total rate; on 64 KiB chunks the total swung
between 47 and 67 MB/s from one run to the next).

Measured on the reference sandbox (2 vCPUs): 38-42 MB/s from 16 KiB
up, against 13-14 MB/s for the scalar loop; the tables take 128 KiB and
are built on first use in about a millisecond.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

import numpy as np

try:  # the optional `fast` extra
    from crc32c import crc32c as _native_crc32c
except ImportError:
    _native_crc32c = None

#: Which implementation :func:`crc32c` runs on: ``"native"`` or ``"numpy"``.
BACKEND = "numpy" if _native_crc32c is None else "native"

#: Reflected CRC32C (Castagnoli) polynomial.
_POLY = 0x82F63B78
_MASK = 0xFFFFFFFF

#: Below this many bytes the scalar loop wins (measured crossover: 76 us
#: either way at 1 KiB; the vector kernel's floor is ~40 us of NumPy calls).
_VECTOR_MIN = 1024
#: Words gathered per step: 4 KiB of input and 24 KiB of temporaries,
#: however large the buffer is. Larger steps measured no faster.
_BLOCK_WORDS = 1024
#: Fold levels kept: enough for 2**32 words (16 GiB).
_LEVELS = 32
#: ``_OFFSETS[j]`` selects byte ``j``'s 256 entries in a flat 4x256 table.
_OFFSETS = np.arange(4, dtype=np.uint16) << 8

_KERNEL_LOCK = threading.Lock()
_SLICING: Optional[List[list]] = None
_SHIFTS: Optional[Tuple[np.ndarray, ...]] = None


def _advance(
    shift: np.ndarray, reg_bytes: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Registers pushed through the zero bytes that ``shift`` (a flat 4x256
    table) stands for; ``reg_bytes`` is their ``(n, 4)`` little-endian
    uint8 view. With ``shift_tables()[0]`` and a zero start, ``reg_bytes``
    may as well be data: the result is each word's raw register."""
    gathered = shift.take(reg_bytes + _OFFSETS, mode="wrap")
    return np.bitwise_xor.reduce(gathered, axis=1, out=out)


def _build_shift_tables() -> Tuple[np.ndarray, ...]:
    rows = [np.arange(256, dtype="<u4")]
    for _ in range(8):
        rows[0] = (rows[0] >> 1) ^ (_POLY * (rows[0] & 1))
    for _ in range(3):  # rows[j][b]: byte b, then j zero bytes
        rows.append(rows[0][rows[-1] & 0xFF] ^ (rows[-1] >> 8))
    # A register's lowest byte has the most zero bytes still to cross.
    shifts = [np.concatenate(rows[::-1])]
    while len(shifts) < _LEVELS:
        shifts.append(_advance(shifts[-1], shifts[-1].view(np.uint8).reshape(-1, 4)))
    return tuple(shifts)


def _shift_tables() -> Tuple[np.ndarray, ...]:
    """``tables[level]`` advances a register ``4 * 2**level`` zero bytes;
    built on first use.

    Built into locals and published with one assignment, so threads racing
    through a cold start at worst build identical tables twice.
    """
    global _SHIFTS
    if _SHIFTS is None:
        _SHIFTS = _build_shift_tables()
    return _SHIFTS


def _slicing_tables() -> List[list]:
    """Slicing-by-4 tables as Python lists: ``tables[j][b]`` is byte ``b``
    followed by ``j`` zero bytes."""
    global _SLICING
    if _SLICING is None:
        _SLICING = [row.tolist() for row in _shift_tables()[0].reshape(4, 256)[::-1]]
    return _SLICING


def _as_uint8(data: "bytes | bytearray | memoryview | np.ndarray") -> np.ndarray:
    """``data``'s C-order bytes as a 1-D uint8 array, without copying any
    C-contiguous buffer."""
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    return np.frombuffer(data, dtype=np.uint8)


def _crc32c_sliced(data, value: int = 0) -> int:
    """Scalar slicing-by-4: fold little-endian words, byte-walk the tail."""
    t0, t1, t2, t3 = _slicing_tables()
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
    """Word-parallel CRC32C of a uint8 array holding whole 4-byte words."""
    shifts = _shift_tables()
    words = buf.reshape(-1, 4)
    count = words.shape[0]
    with _KERNEL_LOCK:
        # A power of two with at least one slot ahead of the first word:
        # the incoming register sits there, and zero registers in front of
        # it fold to zero, so no word count needs special-casing.
        regs = np.zeros(1 << count.bit_length(), dtype="<u4")
        regs[-count - 1] = ~value & _MASK
        live = regs[-count:]
        for start in range(0, count, _BLOCK_WORDS):
            stop = start + _BLOCK_WORDS
            _advance(shifts[0], words[start:stop], out=live[start:stop])
        level = 0
        while regs.size > 1:
            left = regs.view(np.uint8).reshape(-1, 8)[:, :4]
            right = regs[1::2]
            regs = _advance(shifts[level], left)
            regs ^= right
            level += 1
    return ~int(regs[0]) & _MASK


def _crc32c_numpy(buf: np.ndarray, value: int) -> int:
    """Whole words of a large enough buffer through the vector kernel, the
    rest through the scalar loop."""
    whole = buf.size & ~3 if buf.size >= _VECTOR_MIN else 0
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
    buf = _as_uint8(data)
    if _native_crc32c is not None:
        return _native_crc32c(buf, value)
    return _crc32c_numpy(buf, value)


def verify_crc32c(data: "bytes | np.ndarray", expected: int) -> bool:
    """True when ``data`` hashes to ``expected``."""
    return crc32c(data) == (expected & _MASK)
