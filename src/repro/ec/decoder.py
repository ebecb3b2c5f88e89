"""Full-stripe RS reconstruction (the FSR coding primitive).

Given any k surviving shards of an (n, k) stripe, every shard — data or
parity — is a known linear combination of the k data shards. Selecting the
k surviving rows of the encoding matrix gives a square system; inverting it
recovers the data shards, and re-encoding recovers lost parity shards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import CodingError, InsufficientShardsError
from repro.gf import gf_mat_inv, gf_mat_mul, gf_mul_add_scalar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ec.encoder import RSCode


def decode_matrix_for(code: "RSCode", survivor_ids: Sequence[int]) -> np.ndarray:
    """Return the k x k matrix mapping the chosen k survivors to data shards.

    ``survivor_ids`` must be k distinct shard indices in [0, n). Row i of
    the result gives the coefficients that combine the k survivor shards
    into data shard i:
    ``D_i = XOR_j out[i, j] * shard[survivor_ids[j]]``.
    """
    if len(survivor_ids) != code.k:
        raise InsufficientShardsError(
            f"need exactly k={code.k} survivors to build a decode matrix, got {len(survivor_ids)}"
        )
    ids = list(survivor_ids)
    if len(set(ids)) != len(ids):
        raise CodingError(f"duplicate survivor indices: {ids}")
    if any(not 0 <= j < code.n for j in ids):
        raise CodingError(f"survivor index out of range [0, {code.n}): {ids}")
    sub = code.matrix[ids, :]
    return gf_mat_inv(sub)


#: Entries one code object memoises before starting over; RS(9,6) has at
#: most C(9,6) x 9 = 756 sorted ``(survivors, target)`` patterns.
_MEMO_ENTRIES = 4096


def reconstruction_coefficients(
    code: "RSCode", survivor_ids: Sequence[int], target: int
) -> Dict[int, int]:
    """Per-survivor coefficients that rebuild shard ``target``.

    Returns ``{survivor_id: coeff}`` such that
    ``shard[target] = XOR coeff * shard[survivor_id]``. This is the form
    the partial decoder consumes: each repair round folds its P_a chunks
    into the accumulator with exactly these scalars (Equation (2)).

    The matrix inversion behind a ``(survivors, target)`` pattern runs once
    per code object: with rotating placement a disk's stripes share a
    handful of patterns, and both the repair (on the event-loop thread) and
    every degraded read ask again per stripe. The dict returned is the
    caller's own.
    """
    memo = code.__dict__.setdefault("_reconstruction_memo", {})
    key = (tuple(survivor_ids), target)
    row = memo.get(key)
    if row is None:
        decode = decode_matrix_for(code, survivor_ids)
        if not 0 <= target < code.n:
            raise CodingError(f"target shard {target} out of range [0, {code.n})")
        if target < code.k:
            row = decode[target]
        else:
            # parity row: (encoding row for target) @ decode
            row = gf_mat_mul(code.matrix[target][None, :], decode)[0]
        if len(memo) >= _MEMO_ENTRIES:
            memo.clear()
        row = memo[key] = tuple(int(coeff) for coeff in row)
    return {int(sid): coeff for sid, coeff in zip(survivor_ids, row)}


def reconstruct(
    code: "RSCode",
    shards: Sequence[Optional[np.ndarray]],
    targets: Optional[Sequence[int]] = None,
) -> List[np.ndarray]:
    """Rebuild missing shards from any k survivors (full-stripe decode).

    Args:
        code: the RS code.
        shards: length-n list; ``None`` marks a missing shard.
        targets: which missing shard indices to rebuild (default all).

    Returns:
        The full shard list with requested holes filled in.

    Raises:
        InsufficientShardsError: fewer than k shards present.
        CodingError: malformed input.
    """
    if len(shards) != code.n:
        raise CodingError(f"expected n={code.n} shards, got {len(shards)}")
    present = [j for j, s in enumerate(shards) if s is not None]
    missing = [j for j, s in enumerate(shards) if s is None]
    if targets is None:
        targets = missing
    else:
        targets = list(targets)
        bad = [t for t in targets if shards[t] is not None]
        if bad:
            raise CodingError(f"targets {bad} are not missing")
    if not targets:
        return [np.asarray(s, dtype=np.uint8) for s in shards]  # nothing to do
    if len(present) < code.k:
        raise InsufficientShardsError(
            f"only {len(present)} of k={code.k} shards survive; stripe unrecoverable"
        )

    survivor_ids = present[: code.k]
    survivors = [np.asarray(shards[j], dtype=np.uint8) for j in survivor_ids]
    sizes = {s.size for s in survivors}
    if len(sizes) != 1:
        raise CodingError(f"surviving shards have differing sizes: {sorted(sizes)}")
    chunk_size = survivors[0].size

    out: List[Optional[np.ndarray]] = [
        None if s is None else np.asarray(s, dtype=np.uint8) for s in shards
    ]
    for target in targets:
        coeffs = reconstruction_coefficients(code, survivor_ids, target)
        acc = np.zeros(chunk_size, dtype=np.uint8)
        for sid, shard in zip(survivor_ids, survivors):
            gf_mul_add_scalar(acc, coeffs[sid], shard)
        out[target] = acc
    # Only requested targets were rebuilt; other holes stay None.
    return out  # type: ignore[return-value]
