"""Synthetic ``L_{s×k}`` transfer-time workloads.

The paper's Observation-2 setup (§3.2): chunk transfer times drawn from a
normal distribution with mean 2 and *variance* 4, a fraction **ROS** of
chunks designated *slow*. We reproduce that generator faithfully — slow
chunks are regular draws scaled by ``slow_factor`` — plus a uniform control
workload for calibration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import check_positive, check_probability


@dataclass
class TransferTimeWorkload:
    """A generated transfer-time matrix plus its ground truth.

    Attributes:
        L: the s x k transfer-time matrix (seconds, or the paper's
            dimensionless "time units").
        slow_mask: boolean s x k matrix; True where a chunk was made slow.
        params: generator parameters for trace metadata.
    """

    L: np.ndarray
    slow_mask: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def s(self) -> int:
        return self.L.shape[0]

    @property
    def k(self) -> int:
        return self.L.shape[1]

    @property
    def ros_actual(self) -> float:
        """Realised slow-chunk fraction."""
        return float(self.slow_mask.mean())


def normal_transfer_times(
    s: int,
    k: int,
    mean: float = 2.0,
    variance: float = 4.0,
    ros: float = 0.0,
    slow_factor: float = 4.0,
    floor: float = 0.1,
    seed: RngLike = None,
) -> TransferTimeWorkload:
    """The paper's Figure-4 workload: N(mean, variance) with ROS slow chunks.

    Args:
        s: stripes; k: chunks per stripe.
        mean, variance: of the base normal distribution (paper: 2 and 4).
        ros: ratio of slow chunks over all s*k chunks (paper: 2-10%).
        slow_factor: slow chunks' times are scaled by this factor.
        floor: minimum transfer time (normal draws can go non-positive;
            the paper is silent on clipping — we clip at a small positive
            floor so times stay physical).
        seed: RNG seed / generator.
    """
    check_positive("s", s)
    check_positive("k", k)
    check_positive("mean", mean)
    if variance < 0:
        raise ConfigurationError(f"variance must be >= 0, got {variance}")
    check_probability("ros", ros)
    if slow_factor < 1.0:
        raise ConfigurationError(f"slow_factor must be >= 1, got {slow_factor}")
    rng = make_rng(seed)
    base = rng.normal(mean, np.sqrt(variance), size=(s, k))
    base = np.maximum(base, floor)
    slow_mask = np.zeros((s, k), dtype=bool)
    total = s * k
    num_slow = int(round(ros * total))
    if num_slow:
        flat_idx = rng.choice(total, size=num_slow, replace=False)
        slow_mask.flat[flat_idx] = True
        base[slow_mask] *= slow_factor
    return TransferTimeWorkload(
        L=base,
        slow_mask=slow_mask,
        params={
            "kind": "normal",
            "s": s,
            "k": k,
            "mean": mean,
            "variance": variance,
            "ros": ros,
            "slow_factor": slow_factor,
            "floor": floor,
        },
    )


def disk_heterogeneous_transfer_times(
    s: int,
    k: int,
    num_disks: int,
    ros: float = 0.1,
    slow_factor: float = 4.0,
    base_mean: float = 2.0,
    base_std: float = 0.2,
    floor: float = 0.1,
    seed: RngLike = None,
) -> "tuple[TransferTimeWorkload, np.ndarray]":
    """Disk-level heterogeneity: slow *disks*, not slow chunks.

    Chunks are assigned to random source disks; a ``ros`` fraction of the
    disks runs ``slow_factor`` x slower, so every chunk on a slow disk is
    slow together — the structure HD-PSR-PA's per-disk marking assumes
    (and what a real mixed-health chassis produces).

    Returns ``(workload, disk_ids)`` where ``disk_ids`` is the s x k
    source-disk matrix aligned with ``workload.L``.
    """
    check_positive("s", s)
    check_positive("k", k)
    check_positive("num_disks", num_disks)
    check_probability("ros", ros)
    if slow_factor < 1.0:
        raise ConfigurationError(f"slow_factor must be >= 1, got {slow_factor}")
    if k > num_disks:
        raise ConfigurationError(f"k={k} chunks cannot come from {num_disks} distinct disks")
    rng = make_rng(seed)
    # Each stripe reads from k distinct disks.
    disk_ids = np.empty((s, k), dtype=np.int64)
    for i in range(s):
        disk_ids[i] = rng.choice(num_disks, size=k, replace=False)
    factors = np.ones(num_disks, dtype=np.float64)
    num_slow = int(round(ros * num_disks))
    if num_slow:
        slow = rng.choice(num_disks, size=num_slow, replace=False)
        factors[slow] = slow_factor
    base = np.maximum(rng.normal(base_mean, base_std, size=(s, k)), floor)
    L = base * factors[disk_ids]
    slow_mask = factors[disk_ids] > 1.0
    workload = TransferTimeWorkload(
        L=L,
        slow_mask=slow_mask,
        params={
            "kind": "disk-heterogeneous",
            "s": s,
            "k": k,
            "num_disks": num_disks,
            "ros": ros,
            "slow_factor": slow_factor,
            "base_mean": base_mean,
            "base_std": base_std,
        },
    )
    return workload, disk_ids
