"""Incremental partial-stripe reconstruction (``RecoverWithSomeShards``).

Partial stripe repair feeds surviving chunks to the decoder in *repair
rounds* of ``P_a`` chunks; after each round the chunks are folded into a
small accumulator and their memory slots are released. This module is the
coding-side mechanism that makes that possible: because RS decoding is a
linear combination (Equation (2) of the paper), the sum can be evaluated in
any order and any grouping.

:class:`PartialDecoder` tracks, per repair target, an accumulator chunk and
the set of survivors still to be folded. It is deliberately stateful — its
lifecycle matches one stripe's repair:

>>> pd = PartialDecoder(code, survivor_ids=[0, 1, 3, 5], targets=[2])
>>> pd.feed({0: shard0, 1: shard1})     # round 1: P_a = 2  # doctest: +SKIP
>>> pd.feed({3: shard3, 5: shard5})     # round 2           # doctest: +SKIP
>>> rebuilt = pd.result(2)              # doctest: +SKIP
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import CodingError
from repro.ec.decoder import reconstruction_coefficients
from repro.gf import gf_mat_inv, gf_mat_mul, gf_mul_add_scalar, gf_mul_scalar

if TYPE_CHECKING:  # pragma: no cover
    from repro.ec.encoder import RSCode


class PartialDecoder:
    """Stateful incremental decoder for one stripe's lost shards.

    Args:
        code: the (n, k) RS code.
        survivor_ids: exactly k shard indices that will be fed, in any
            grouping, across repair rounds.
        targets: lost shard indices to rebuild (1 for single-disk repair,
            more under multi-disk failure).
        chunk_size: shard length in bytes; inferred from the first fed
            shard when omitted.
    """

    def __init__(
        self,
        code: "RSCode",
        survivor_ids: Sequence[int],
        targets: Sequence[int],
        chunk_size: Optional[int] = None,
    ) -> None:
        if len(targets) == 0:
            raise CodingError("PartialDecoder needs at least one target shard")
        if len(set(targets)) != len(targets):
            raise CodingError(f"duplicate targets: {list(targets)}")
        overlap = set(targets) & set(survivor_ids)
        if overlap:
            raise CodingError(f"targets {sorted(overlap)} cannot also be survivors")
        self.code = code
        self.survivor_ids = [int(j) for j in survivor_ids]
        self.targets = [int(t) for t in targets]
        # Coefficient table: coeffs[target][survivor] (validates survivor set).
        self._coeffs: Dict[int, Dict[int, int]] = {
            t: reconstruction_coefficients(code, self.survivor_ids, t) for t in self.targets
        }
        self._pending = set(self.survivor_ids)
        self._chunk_size = chunk_size
        self._acc: Dict[int, np.ndarray] = {}
        self._fed_count = 0
        self._fed: List[int] = []
        # Per-target accumulator *row*: the length-k GF vector a_T with
        # A_T = a_T @ message. Each feed of survivor i adds
        # coeff * matrix[i]; once complete a_T equals the target's own
        # encoding row. These rows are what make mid-repair re-planning
        # possible: the accumulator is a virtual symbol with a known row.
        self._rows: Dict[int, np.ndarray] = {
            t: np.zeros(code.k, dtype=np.uint8) for t in self.targets
        }

    # ----------------------------------------------------------------- state
    @property
    def pending(self) -> List[int]:
        """Survivor shard indices not yet folded in (sorted)."""
        return sorted(self._pending)

    @property
    def complete(self) -> bool:
        """True once all k survivors have been folded."""
        return not self._pending

    @property
    def fed(self) -> List[int]:
        """Survivor shard indices already folded in, in feed order."""
        return list(self._fed)

    @property
    def rounds_fed(self) -> int:
        """How many ``feed`` calls (repair rounds) happened so far."""
        return self._fed_count

    def memory_chunks_held(self) -> int:
        """Number of accumulator chunks currently resident (= #targets).

        This is PSR's memory footprint between rounds: one chunk per repair
        target, regardless of P_a — the property that lets P_r stripes
        coexist in a c-chunk memory.
        """
        return len(self._acc)

    # ------------------------------------------------------------------ feed
    def feed(self, shards: Mapping[int, np.ndarray]) -> "PartialDecoder":
        """Fold one repair round's chunks into every target's accumulator.

        Args:
            shards: mapping of survivor shard index -> chunk buffer. Each
                survivor may be fed exactly once over the decoder lifetime.

        Raises:
            CodingError: if any shard is undeclared, already fed, not 1-D
                or of the wrong size. Every shard is checked before any is
                folded, so a rejected round leaves the decoder unchanged
                and can be retried.
        """
        if not shards:
            raise CodingError("feed() called with no shards")
        size = self._chunk_size
        arrays: Dict[int, np.ndarray] = {}
        for sid, buf in shards.items():
            if sid not in self._pending:
                if sid in self.survivor_ids:
                    raise CodingError(f"survivor shard {sid} was already fed")
                raise CodingError(f"shard {sid} is not one of the declared survivors")
            arr = np.asarray(buf, dtype=np.uint8)
            if arr.ndim != 1:
                raise CodingError(f"shard {sid} must be 1-D, got shape {arr.shape}")
            if size is None:
                size = arr.size
            elif arr.size != size:
                raise CodingError(f"shard {sid} has {arr.size} bytes, expected {size}")
            arrays[sid] = arr
        self._chunk_size = size
        for sid, arr in arrays.items():
            for target in self.targets:
                acc = self._acc.get(target)
                if acc is None:
                    acc = np.zeros(size, dtype=np.uint8)
                    self._acc[target] = acc
                coeff = self._coeffs[target][sid]
                gf_mul_add_scalar(acc, coeff, arr)
                self._rows[target] ^= gf_mul_scalar(coeff, self.code.matrix[sid])
            self._pending.discard(sid)
            self._fed.append(sid)
        self._fed_count += 1
        return self

    # --------------------------------------------------------------- salvage
    def replan(
        self, new_reads: Sequence[int], targets: Sequence[int]
    ) -> "PartialDecoder":
        """Swap the remaining read set without discarding fed data.

        When a pending survivor dies mid-repair, each accumulator is a
        *virtual symbol*: ``A_T = a_T @ message`` with known row ``a_T``
        (tracked in :attr:`_rows`). Stacking the ``t`` accumulator rows with
        the encoding rows of ``k - t`` replacement reads gives a k x k
        system; if invertible, the old accumulators are re-mixed in place
        and only the replacement chunks ever hit a disk — everything already
        fed is salvaged.

        The same system rebuilds any shard, so ``targets`` may grow the
        target set: a new target's accumulator is ``Σ y[j]·acc_j`` and its
        row ``Σ y[j]·row_j`` over the old targets ``j``, as an old one's is.

        Args:
            new_reads: exactly ``k - t`` shard indices to read from here on
                (``t`` counts the targets before the call). They may keep
                still-alive pending survivors, and may re-read already-fed
                shards when the pool of fresh ones runs dry (the accumulator
                still saves ``t`` reads over a restart; re-reading *every*
                fed shard makes the system singular and is rejected).
            targets: the shards to rebuild from here on: the current ones
                plus any the stripe has lost meanwhile.

        Raises:
            CodingError: if the stacked system is singular (notably when
                fewer than ``len(targets)`` chunks have been fed, so the
                accumulator rows cannot be independent). Callers fall back
                to :meth:`restart`.
        """
        k, t = self.code.k, len(self.targets)
        reads = [int(r) for r in new_reads]
        targets = [int(x) for x in targets]
        if len(reads) != k - t:
            raise CodingError(
                f"replan needs exactly k - t = {k - t} new reads, got {len(reads)}"
            )
        if len(set(reads)) != len(reads):
            raise CodingError(f"duplicate replan reads: {reads}")
        bad = set(reads) & set(targets)
        if bad:
            raise CodingError(f"replan reads {sorted(bad)} are repair targets")
        for r in reads:
            if not 0 <= r < self.code.n:
                raise CodingError(f"replan read {r} out of range [0, {self.code.n})")
        mat = np.zeros((k, k), dtype=np.uint8)
        for j, target in enumerate(self.targets):
            mat[j] = self._rows[target]
        for idx, r in enumerate(reads):
            mat[t + idx] = self.code.matrix[r]
        inv = gf_mat_inv(mat)  # CodingError when singular -> caller restarts
        old_targets = self.targets
        old_acc = {t_: a.copy() for t_, a in self._acc.items()}
        old_rows = {t_: r.copy() for t_, r in self._rows.items()}
        for target in targets:
            # y expresses shard ``target`` over [acc rows; replacement rows].
            y = gf_mat_mul(self.code.matrix[target][None, :].astype(np.uint8), inv)[0]
            if old_acc:
                acc = np.zeros(self._chunk_size, dtype=np.uint8)
                for j, src in enumerate(old_targets):
                    gf_mul_add_scalar(acc, int(y[j]), old_acc[src])
                self._acc[target] = acc
            row = np.zeros(k, dtype=np.uint8)
            for j, src in enumerate(old_targets):
                row ^= gf_mul_scalar(int(y[j]), old_rows[src])
            self._rows[target] = row
            self._coeffs[target] = {r: int(y[t + idx]) for idx, r in enumerate(reads)}
        self.targets = targets
        self._pending = set(reads)
        self.survivor_ids = sorted((set(self._fed) | set(reads)) - set(targets))
        return self

    def restart(
        self, new_survivors: Sequence[int], targets: Sequence[int]
    ) -> "PartialDecoder":
        """Discard all progress and start over on a fresh k-survivor set,
        rebuilding ``targets``.

        The fallback when :meth:`replan` is infeasible (accumulator rows
        rank-deficient). Every previously fed chunk must be read again.
        """
        self.__init__(self.code, new_survivors, targets, self._chunk_size)
        return self

    # ----------------------------------------------------------- checkpointing
    def to_state(self) -> Dict[str, object]:
        """Snapshot the full decoder state (a v1 journal's ``round_commit``).

        Nothing restores one: a stripe interrupted mid-decode restarts from
        its plan, and no driver calls this. It stays because the
        benchmark's ``journal.round_commit_ms`` row builds its record with
        it, and goes when that row does. The snapshot holds the survivor /
        pending / fed bookkeeping, the per-target coefficient tables and
        accumulator rows, and the accumulator chunks as uint8 arrays under
        ``"acc"`` (the journal frames them as raw binary blobs).
        """
        return {
            "survivor_ids": list(self.survivor_ids),
            "targets": list(self.targets),
            "chunk_size": self._chunk_size,
            "pending": sorted(self._pending),
            "fed": list(self._fed),
            "fed_count": self._fed_count,
            "coeffs": {
                str(t): {str(s): int(c) for s, c in m.items()}
                for t, m in self._coeffs.items()
            },
            "rows": {
                str(t): [int(x) for x in row] for t, row in self._rows.items()
            },
            "acc": {str(t): a.copy() for t, a in self._acc.items()},
        }

    # ---------------------------------------------------------------- result
    def result(self, target: int) -> np.ndarray:
        """Return the rebuilt shard for ``target`` (all survivors must be fed)."""
        if target not in self._coeffs:
            raise CodingError(f"{target} is not a declared target")
        if self._pending:
            raise CodingError(
                f"decode incomplete; survivors still pending: {self.pending}"
            )
        if target not in self._acc:
            # Possible only if chunk_size was never learned (feed never called
            # with this configuration) — guarded by the pending check above.
            raise CodingError("no data was fed")
        return self._acc[target]

    def results(self) -> Dict[int, np.ndarray]:
        """All rebuilt shards keyed by target index."""
        return {t: self.result(t) for t in self.targets}
