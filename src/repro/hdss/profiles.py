"""Disk speed profiles — how heterogeneous the spindles are.

A profile draws one nominal bandwidth per disk. The key profile for the
paper is :class:`BimodalSlowProfile`: a fraction ``ros`` of disks (the
"ratio of slow", §3.2) runs ``slow_factor`` times slower than the rest,
which is how mixed-age/high-load spindles behave in a real HDSS.
"""

from __future__ import annotations

import abc
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import check_positive, check_probability


class SpeedProfile(abc.ABC):
    """Draws per-disk nominal bandwidths (bytes/second)."""

    @abc.abstractmethod
    def sample(self, count: int, rng: RngLike = None) -> np.ndarray:
        """Return ``count`` bandwidths as a float64 array."""

    def describe(self) -> str:
        """One-line human description for reports."""
        return type(self).__name__


class UniformProfile(SpeedProfile):
    """All disks identical: ``bandwidth`` bytes/second."""

    def __init__(self, bandwidth: float) -> None:
        check_positive("bandwidth", bandwidth)
        self.bandwidth = float(bandwidth)

    def sample(self, count: int, rng: RngLike = None) -> np.ndarray:
        return np.full(count, self.bandwidth, dtype=np.float64)

    def describe(self) -> str:
        return f"uniform({self.bandwidth / 1e6:.0f} MB/s)"


class BimodalSlowProfile(SpeedProfile):
    """A ``ros`` fraction of disks runs ``slow_factor`` x slower.

    This is the paper's slow-disk population: fast disks at ``bandwidth``,
    slow disks at ``bandwidth / slow_factor``. The number of slow disks is
    ``round(ros * count)`` placed at random positions, so a given seed
    always produces the same slow set.
    """

    def __init__(self, bandwidth: float, ros: float, slow_factor: float = 4.0) -> None:
        check_positive("bandwidth", bandwidth)
        check_probability("ros", ros)
        if slow_factor < 1.0:
            raise ConfigurationError(f"slow_factor must be >= 1, got {slow_factor}")
        self.bandwidth = float(bandwidth)
        self.ros = float(ros)
        self.slow_factor = float(slow_factor)

    def sample(self, count: int, rng: RngLike = None) -> np.ndarray:
        gen = make_rng(rng)
        values = np.full(count, self.bandwidth, dtype=np.float64)
        num_slow = int(round(self.ros * count))
        if num_slow > 0:
            slow_idx = gen.choice(count, size=min(num_slow, count), replace=False)
            values[slow_idx] = self.bandwidth / self.slow_factor
        return values

    def describe(self) -> str:
        return (
            f"bimodal({self.bandwidth / 1e6:.0f} MB/s, ros={self.ros:.0%}, "
            f"x{self.slow_factor:.0f} slower)"
        )


def build_disks(
    count: int,
    profile: SpeedProfile,
    capacity: int,
    jitter: float = 0.0,
    seed: RngLike = None,
) -> "List":
    """Instantiate ``count`` :class:`~repro.hdss.disk.Disk` from a profile."""
    from repro.hdss.disk import Disk
    from repro.utils.rng import derive_seed, optional_seed

    gen = make_rng(seed)
    bandwidths = profile.sample(count, gen)
    base = optional_seed(seed)
    disks = []
    for disk_id in range(count):
        disk_seed = derive_seed(base, "disk", disk_id) if base is not None else None
        disks.append(
            Disk(disk_id, float(bandwidths[disk_id]), capacity=capacity, jitter=jitter, seed=disk_seed)
        )
    return disks
