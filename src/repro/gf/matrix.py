"""Matrix algebra over GF(2^8): products, inversion, RS encoding matrices.

Matrices are small (n x k with n <= a few hundred), so clarity wins over
micro-optimisation here; the chunk-buffer hot path lives in
:mod:`repro.gf.arithmetic`. Inversion is Gauss-Jordan with partial pivoting
(any non-zero pivot works in a field).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodingError
from repro.gf.arithmetic import gf_inv, gf_mul, gf_pow


def gf_identity(size: int) -> np.ndarray:
    """The size x size identity matrix over GF(2^8)."""
    return np.eye(size, dtype=np.uint8)


def gf_mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^8).

    Computed as an XOR-reduction of broadcast element products:
    ``out[i, j] = XOR_t a[i, t] * b[t, j]``.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} @ {b.shape}")
    # products[i, t, j] = a[i, t] * b[t, j]
    products = gf_mul(a[:, :, None], b[None, :, :])
    return np.bitwise_xor.reduce(products, axis=1)


def gf_mat_inv(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.

    Raises:
        CodingError: if the matrix is singular (decode matrix of a
            non-MDS shard selection, which cannot happen for RS with
            distinct evaluation points but is guarded anyway).
    """
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    size = m.shape[0]
    work = np.concatenate([m.copy(), gf_identity(size)], axis=1)
    for col in range(size):
        pivot_rows = np.nonzero(work[col:, col])[0]
        if pivot_rows.size == 0:
            raise CodingError(f"singular matrix (no pivot in column {col})")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
        inv_pivot = gf_inv(work[col, col])
        work[col] = gf_mul(work[col], inv_pivot)
        # Eliminate the column from every other row in one vectorised sweep.
        factors = work[:, col].copy()
        factors[col] = 0
        work ^= gf_mul(factors[:, None], work[col][None, :])
    return work[:, size:].copy()


def gf_vandermonde(rows: int, cols: int) -> np.ndarray:
    """Raw Vandermonde matrix ``V[i, j] = i ** j`` over GF(2^8)."""
    if rows > 256:
        raise ValueError("GF(2^8) supports at most 256 distinct rows")
    i = np.arange(rows, dtype=np.uint8)[:, None]
    j = np.arange(cols)
    out = np.empty((rows, cols), dtype=np.uint8)
    for col in j:  # cols == k is tiny; per-column gf_pow is vectorised over rows
        out[:, col] = gf_pow(i[:, 0], int(col))
    return out


def gf_cauchy(rows: int, cols: int) -> np.ndarray:
    """Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)`` with x_i = i + cols, y_j = j.

    Every square submatrix of a Cauchy matrix is invertible, which is the
    property RS parity generation needs.
    """
    if rows + cols > 256:
        raise ValueError("rows + cols must be <= 256 for distinct points")
    x = np.arange(cols, cols + rows, dtype=np.uint8)[:, None]
    y = np.arange(cols, dtype=np.uint8)[None, :]
    return gf_inv(np.bitwise_xor(x, y))


def gf_rs_encoding_matrix(n: int, k: int, style: str = "vandermonde") -> np.ndarray:
    """Systematic n x k RS encoding matrix: identity on top, parity below.

    ``style='vandermonde'`` mirrors the klauspost/reedsolomon default: build
    a raw n x k Vandermonde matrix and normalise its top k x k block to the
    identity by right-multiplying with that block's inverse (this preserves
    the MDS property). ``style='cauchy'`` stacks identity over a Cauchy
    block directly.
    """
    if not (0 < k < n):
        raise ValueError(f"require 0 < k < n, got n={n} k={k}")
    if style == "vandermonde":
        raw = gf_vandermonde(n, k)
        top_inv = gf_mat_inv(raw[:k, :k])
        return gf_mat_mul(raw, top_inv)
    if style == "cauchy":
        parity = gf_cauchy(n - k, k)
        return np.concatenate([gf_identity(k), parity], axis=0)
    raise ValueError(f"unknown encoding matrix style {style!r}")
