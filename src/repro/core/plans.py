"""Repair-plan structures shared by every HD-PSR algorithm.

A :class:`RepairPlan` says, for each stripe needing repair, *which survivor
chunks move in which repair round*. Chunks are referenced by their **column
position** in the stripe's row of the ``L_{s×k}`` matrix (position j maps
to survivor shard ``survivor_ids[i][j]``), which keeps the algorithms
independent of placement details.

:func:`plan_to_jobs` adapts a plan plus its ``L`` matrix into the simulator
job list executed by :mod:`repro.sim.transfer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import PlanError
from repro.sim.transfer import ChunkTransfer, StripeJob


@dataclass
class StripePlan:
    """One stripe's repair schedule.

    Attributes:
        stripe_index: which stripe (index into the L matrix rows *and* the
            ``stripe_indices`` list returned with it).
        rounds: ordered rounds; each round is a list of L-column positions
            transferred in parallel.
        accumulator_chunks: partial-sum chunks held between rounds (one per
            repair target when the plan has more than one round; zero for a
            single-round FSR-style plan where decode happens in place).
    """

    stripe_index: int
    rounds: List[List[int]]
    accumulator_chunks: int = 0

    def validate(self, k: int) -> None:
        """Check the plan covers each of the k columns exactly once."""
        if not self.rounds or any(not r for r in self.rounds):
            raise PlanError(f"stripe {self.stripe_index}: empty plan or empty round")
        flat = [c for rnd in self.rounds for c in rnd]
        if sorted(flat) != list(range(k)):
            raise PlanError(
                f"stripe {self.stripe_index}: rounds must cover columns 0..{k - 1} "
                f"exactly once, got {sorted(flat)}"
            )
        if self.accumulator_chunks < 0:
            raise PlanError(f"stripe {self.stripe_index}: negative accumulator count")

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def max_round_size(self) -> int:
        return max(len(r) for r in self.rounds)

    def peak_memory_chunks(self) -> int:
        """Worst-case chunk slots this stripe holds at once."""
        return self.max_round_size() + (self.accumulator_chunks if self.num_rounds > 1 else 0)


@dataclass
class RepairPlan:
    """A full single-recovery schedule produced by one algorithm.

    Attributes:
        algorithm: canonical algorithm name (``"fsr"``, ``"hd-psr-ap"``...).
        pa: the chosen intra-stripe parallelism degree (None when rounds
            are heterogeneous, as in HD-PSR-PA).
        pr: the inter-stripe degree the algorithm intends (admission cap /
            interval count); None lets the executor derive a safe value.
        stripe_plans: per-stripe schedules, in intended admission order.
        selection_seconds: wall-clock spent choosing P_a (the paper's
            "algorithm running time", Experiments 2 & 4).
        metadata: free-form extras (candidate T values, slow thresholds...).
    """

    algorithm: str
    stripe_plans: List[StripePlan]
    pa: Optional[int] = None
    pr: Optional[int] = None
    selection_seconds: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)

    def validate(self, k: int) -> None:
        if not self.stripe_plans:
            raise PlanError(f"{self.algorithm}: plan has no stripes")
        seen = set()
        for sp in self.stripe_plans:
            if sp.stripe_index in seen:
                raise PlanError(f"{self.algorithm}: stripe {sp.stripe_index} planned twice")
            seen.add(sp.stripe_index)
            sp.validate(k)

    @property
    def num_stripes(self) -> int:
        return len(self.stripe_plans)

    def total_rounds(self) -> int:
        return sum(sp.num_rounds for sp in self.stripe_plans)

    def peak_memory_chunks(self) -> int:
        """Peak per-stripe footprint across the plan."""
        return max(sp.peak_memory_chunks() for sp in self.stripe_plans)

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (for persisting/auditing plans)."""
        return {
            "algorithm": self.algorithm,
            "pa": self.pa,
            "pr": self.pr,
            "selection_seconds": self.selection_seconds,
            "metadata": _jsonable(self.metadata),
            "stripe_plans": [
                {
                    "stripe_index": sp.stripe_index,
                    "rounds": [list(r) for r in sp.rounds],
                    "accumulator_chunks": sp.accumulator_chunks,
                }
                for sp in self.stripe_plans
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RepairPlan":
        """Inverse of :meth:`to_dict`."""
        try:
            stripe_plans = [
                StripePlan(
                    stripe_index=int(sp["stripe_index"]),
                    rounds=[[int(c) for c in r] for r in sp["rounds"]],
                    accumulator_chunks=int(sp.get("accumulator_chunks", 0)),
                )
                for sp in data["stripe_plans"]
            ]
            return cls(
                algorithm=data["algorithm"],
                stripe_plans=stripe_plans,
                pa=data.get("pa"),
                pr=data.get("pr"),
                selection_seconds=float(data.get("selection_seconds", 0.0)),
                metadata=dict(data.get("metadata", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"malformed plan dict: {exc}") from exc


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of metadata values to JSON-safe types."""
    import numpy as _np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, _np.generic):
        return value.item()
    return value


def plan_to_jobs(
    plan: RepairPlan,
    L: np.ndarray,
    stripe_indices: Optional[Sequence[int]] = None,
    survivor_ids: Optional[Sequence[Sequence[int]]] = None,
    disk_ids: Optional[np.ndarray] = None,
    charge_accumulators: bool = False,
) -> List[StripeJob]:
    """Materialise simulator jobs from a plan and its transfer-time matrix.

    Args:
        plan: the repair plan (column positions reference ``L``'s columns).
        L: the s x k transfer-time matrix the plan was built against.
        stripe_indices: global stripe index per L row (default: row number).
        survivor_ids: shard index per (row, column), used to key chunks as
            ``(stripe, shard)``; default keys are ``(stripe, column)``.
        disk_ids: optional s x k array of source disk per chunk (telemetry).
        charge_accumulators: when True, multi-round stripes hold their
            declared partial-sum slots between rounds. Default False —
            matching the paper's accounting, where ``c`` budgets in-flight
            *transfer* buffers only (Equation (3) packs ``P_r x P_a = c``
            with no accumulator term, and FSR's decode output buffer is
            likewise uncharged). The ablation benchmark flips this on.

    Chunk durations always come from ``L`` — the *oracle* times — even when
    the plan was built from noisy probe estimates; that is precisely how an
    active scheme's mis-estimation shows up as real execution time.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2:
        raise PlanError(f"L must be 2-D, got shape {L.shape}")
    s, k = L.shape
    plan.validate(k)
    jobs: List[StripeJob] = []
    for sp in plan.stripe_plans:
        row = sp.stripe_index
        if not 0 <= row < s:
            raise PlanError(f"stripe plan row {row} outside L with {s} rows")
        global_index = stripe_indices[row] if stripe_indices is not None else row
        rounds: List[List[ChunkTransfer]] = []
        for rnd in sp.rounds:
            chunks = []
            for col in rnd:
                if survivor_ids is not None:
                    key = (global_index, int(survivor_ids[row][col]))
                else:
                    key = (global_index, int(col))
                disk = int(disk_ids[row][col]) if disk_ids is not None else None
                chunks.append(ChunkTransfer(key=key, duration=float(L[row, col]), disk=disk))
            rounds.append(chunks)
        acc = sp.accumulator_chunks if (charge_accumulators and sp.num_rounds > 1) else 0
        jobs.append(StripeJob(job_id=global_index, rounds=rounds, accumulator_slots=acc))
    return jobs
