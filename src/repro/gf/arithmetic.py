"""Vectorised GF(2^8) element and buffer arithmetic.

Every function accepts scalars or ``uint8`` NumPy arrays and broadcasts like
normal NumPy ufuncs. Addition is XOR; element multiplication/division go
through the log/exp tables with explicit zero masking. The chunk-sized
operations (:func:`gf_mul_scalar`, :func:`gf_mul_add_scalar`) are the RS
codec's hot path: one ``bytes.translate`` through the scalar's 256-byte
product table, with no Python loop and no index array.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.gf.tables import FIELD_SIZE, GROUP_ORDER, _EXP, _LOG

ArrayLike = Union[int, np.ndarray]


def _product_tables() -> "tuple[bytes, ...]":
    """``tables[c][x] == c * x``: 256 immutable rows of 256 bytes (64 KiB)."""
    log = _LOG[1:]
    rows = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
    rows[1:, 1:] = _EXP[log[:, None] + log[None, :]]
    return tuple(row.tobytes() for row in rows)


_PRODUCT_TABLES = _product_tables()


def gf_product_table(coeff: int) -> bytes:
    """The 256-byte row ``table[x] == coeff * x`` in GF(2^8).

    Chunk-scalar multiplication with this row is a *single*
    ``bytes.translate`` — no log/exp double lookup, no zero masking (the
    row already maps 0 to 0), and no 8-byte index per chunk byte.
    """
    if not 0 <= int(coeff) <= 255:
        raise ValueError(f"coefficient {coeff} outside GF(2^8)")
    return _PRODUCT_TABLES[int(coeff)]


def _as_u8(x: ArrayLike) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype != np.uint8:
        if np.any((arr < 0) | (arr > 255)):
            raise ValueError("GF(2^8) elements must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    return arr


def gf_add(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Field addition (XOR). Broadcasts; returns uint8."""
    return np.bitwise_xor(_as_u8(a), _as_u8(b))


def gf_sub(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Field subtraction — identical to addition in characteristic 2."""
    return gf_add(a, b)


def gf_mul(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Field multiplication via exp/log lookups with zero masking."""
    a8, b8 = _as_u8(a), _as_u8(b)
    la = _LOG[a8]
    lb = _LOG[b8]
    out = _EXP[la + lb]
    zero = (a8 == 0) | (b8 == 0)
    if zero.ndim == 0:
        return np.uint8(0) if zero else out[()] if out.ndim == 0 else out
    out = np.where(zero, np.uint8(0), out)
    return out.astype(np.uint8)


def gf_div(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Field division ``a / b``; raises ``ZeroDivisionError`` on any b == 0."""
    a8, b8 = _as_u8(a), _as_u8(b)
    if np.any(b8 == 0):
        raise ZeroDivisionError("division by zero in GF(2^8)")
    la = _LOG[a8]
    lb = _LOG[b8]
    out = _EXP[(la - lb) % GROUP_ORDER]
    zero = a8 == 0
    if zero.ndim == 0:
        return np.uint8(0) if zero else out[()] if out.ndim == 0 else out
    return np.where(zero, np.uint8(0), out).astype(np.uint8)


def gf_pow(a: ArrayLike, exponent: int) -> np.ndarray:
    """Field exponentiation ``a ** exponent`` for integer exponents.

    Negative exponents invert first (``a`` must then be non-zero);
    ``0 ** 0 == 1`` by convention.
    """
    a8 = _as_u8(a)
    if exponent == 0:
        return np.ones_like(a8)
    if exponent < 0:
        return gf_pow(gf_inv(a8), -exponent)
    la = _LOG[a8].astype(np.int64)
    out = _EXP[(la * exponent) % GROUP_ORDER]
    zero = a8 == 0
    if zero.ndim == 0:
        return np.uint8(0) if zero else out[()] if out.ndim == 0 else out
    return np.where(zero, np.uint8(0), out).astype(np.uint8)


def gf_inv(a: ArrayLike) -> np.ndarray:
    """Multiplicative inverse; raises ``ZeroDivisionError`` on any zero."""
    a8 = _as_u8(a)
    if np.any(a8 == 0):
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
    return _EXP[(GROUP_ORDER - _LOG[a8]) % GROUP_ORDER].astype(np.uint8)


def gf_mul_scalar(coeff: int, buf: np.ndarray) -> np.ndarray:
    """Multiply a whole uint8 buffer by one field scalar (vectorised).

    This is the per-chunk kernel of RS encode/decode: ``coeff * buf`` is
    one copy of ``buf`` translated through the scalar's product row
    (:func:`gf_product_table`). The result is a fresh, writable array.
    """
    buf8 = _as_u8(buf)
    table = gf_product_table(coeff)
    if coeff == 0:
        return np.zeros_like(buf8)
    if coeff == 1:
        return buf8.copy()
    out = bytearray(buf8.data).translate(table)
    return np.frombuffer(out, dtype=np.uint8).reshape(buf8.shape)


def gf_mul_add_scalar(acc: np.ndarray, coeff: int, buf: np.ndarray) -> np.ndarray:
    """In-place fused multiply-add: ``acc ^= coeff * buf``; returns ``acc``.

    ``acc`` must be a writable uint8 array shaped like ``buf`` (it may be
    ``buf``): the partial-stripe-repair accumulator update, Equation (2)
    of the paper evaluated incrementally, one surviving chunk at a time.
    """
    if acc.dtype != np.uint8:
        raise ValueError("accumulator must be uint8")
    if acc.shape != np.shape(buf):
        raise ValueError(f"shape mismatch: acc {acc.shape} vs buf {np.shape(buf)}")
    if coeff == 0:
        return acc
    term = _as_u8(buf)
    if coeff != 1:
        product = term.tobytes().translate(gf_product_table(coeff))
        term = np.frombuffer(product, dtype=np.uint8).reshape(acc.shape)
    np.bitwise_xor(acc, term, out=acc)
    return acc
