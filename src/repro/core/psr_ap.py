"""HD-PSR-AP — the Active Preliminary algorithm (paper §4.2.1, Algorithm 1).

AP sweeps every candidate ``P_a`` in ``2..k`` and, for each, predicts the
total transfer time ``T`` with the *twice dimensionality reduction*:

1. **Row reduction** — sort each stripe's k transfer times ascending; with
   rounds of ``P_a`` consecutive sorted chunks, round time is the block
   maximum (the last element of the block), so the stripe's total time is
   the sum of every ``P_a``-th sorted element (Equation (4)).
2. **Column reduction** — sort the resulting per-stripe times ascending
   and run the sliding-window simulation of ``P_r = ceil(c / P_a)``
   memory intervals. For ascending admission the window simulation has a
   closed form: the makespan is the sum of every ``P_r``-th element of the
   *descending* stripe-time sequence (proof: the head of the sorted window
   is always the next to finish, so completion times satisfy
   ``E[i] = L_s[i] + E[i - P_r]``, which telescopes).

The chosen ``P_a`` is the first one minimising ``T``. The sweep is fully
vectorised; complexity is ``O(s log s * k)`` after the one-off row sort,
matching the paper's analysis.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.base import RepairAlgorithm, RepairContext
from repro.core.parallelism import pr_for_pa, split_rounds
from repro.core.plans import RepairPlan, StripePlan
from repro.errors import ConfigurationError


def stripe_times_for_pa(L_sorted: np.ndarray, pa: int) -> np.ndarray:
    """First dimensionality reduction: per-stripe total transfer time.

    Args:
        L_sorted: s x k matrix with each **row sorted ascending**.
        pa: intra-stripe parallelism degree.

    Returns:
        Length-s vector: ``sum over rounds of the round's slowest chunk``.
    """
    s, k = L_sorted.shape
    if not 1 <= pa <= k:
        raise ConfigurationError(f"pa must be in [1, {k}], got {pa}")
    ends = np.minimum(np.arange(pa, k + pa, pa), k) - 1
    return L_sorted[:, ends].sum(axis=1)


def window_makespan(stripe_times: np.ndarray, pr: int) -> float:
    """Second dimensionality reduction: the sliding-window makespan.

    Equivalent to admitting stripes in ascending-duration order onto
    ``pr`` parallel memory intervals; closed form = sum of every ``pr``-th
    element of the descending sorted sequence.
    """
    if pr <= 0:
        raise ConfigurationError(f"pr must be positive, got {pr}")
    if stripe_times.size == 0:
        return 0.0
    descending = np.sort(stripe_times)[::-1]
    return float(descending[::pr].sum())


class ActivePreliminaryRepair(RepairAlgorithm):
    """HD-PSR-AP: exhaustive ``P_a`` sweep minimising predicted ``T``.

    Args:
        pr_policy: how ``P_r`` follows from ``P_a`` (``"ceil"`` is the
            paper's Equation (3); ``"floor"`` never overcommits memory).
        pa_min: smallest candidate (paper: 2).
    """

    name = "hd-psr-ap"
    requires_probing = True

    def __init__(self, pr_policy: str = "ceil", pa_min: int = 2) -> None:
        if pa_min < 1:
            raise ConfigurationError(f"pa_min must be >= 1, got {pa_min}")
        self.pr_policy = pr_policy
        self.pa_min = pa_min

    def select(self, L: np.ndarray, c: int) -> Tuple[int, int, Dict[int, float], float]:
        """Run the sweep; returns ``(pa, pr, candidate_T, seconds)``."""
        L = self._check_inputs(L, c)
        k = L.shape[1]
        t0 = time.perf_counter()
        L_sorted = np.sort(L, axis=1)
        candidates: Dict[int, float] = {}
        best_pa, best_t = 0, float("inf")
        for pa in range(min(self.pa_min, k), k + 1):
            pr = pr_for_pa(c, pa, policy=self.pr_policy)
            t = window_makespan(stripe_times_for_pa(L_sorted, pa), pr)
            candidates[pa] = t
            if t < best_t:
                best_t, best_pa = t, pa
        elapsed = time.perf_counter() - t0
        return best_pa, pr_for_pa(c, best_pa, policy=self.pr_policy), candidates, elapsed

    def build_plan(
        self,
        L: np.ndarray,
        c: int,
        context: Optional[RepairContext] = None,
    ) -> RepairPlan:
        L = self._check_inputs(L, c)
        s, k = L.shape
        pa, pr, candidates, elapsed = self.select(L, c)

        # Rounds read chunks in ascending measured-speed order (the sorted
        # blocks the prediction assumed); stripes are admitted ascending by
        # their reduced time L_s, matching the window model.
        order = np.argsort(L, axis=1, kind="stable")
        L_sorted = np.take_along_axis(L, order, axis=1)
        stripe_times = stripe_times_for_pa(L_sorted, pa)
        admission = np.argsort(stripe_times, kind="stable")

        stripe_plans = []
        for row in admission:
            cols = [int(ci) for ci in order[row]]
            rounds = split_rounds(cols, pa)
            stripe_plans.append(
                StripePlan(
                    stripe_index=int(row),
                    rounds=rounds,
                    accumulator_chunks=1 if len(rounds) > 1 else 0,
                )
            )
        return RepairPlan(
            algorithm=self.name,
            stripe_plans=stripe_plans,
            pa=pa,
            pr=pr,
            selection_seconds=elapsed,
            metadata={"candidate_T": candidates, "predicted_T": candidates[pa]},
        )
