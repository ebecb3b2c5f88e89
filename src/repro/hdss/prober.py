"""How repair algorithms learn disk speeds.

Two mechanisms mirroring §4.2 / §4.3 of the paper:

* :class:`ActiveProber` — reads a small probe (1 KiB by default) from each
  disk and converts measured bandwidth into per-chunk transfer-time
  estimates; :func:`~repro.core.repair_job.plan_repair` assembles them into
  the estimated ``L_{s×k}`` matrix HD-PSR-AP/AS consume. The estimates
  carry measurement noise — active algorithms never see oracle truth.

* :class:`PassiveMonitor` — watches completed chunk reads; when a read
  exceeds ``threshold`` seconds (or ``threshold_ratio`` x the expected
  time), the source disk is marked *slow*. HD-PSR-PA consults these marks
  and never issues probe I/O.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hdss.server import HighDensityStorageServer
from repro.utils.validation import check_positive


class ActiveProber:
    """Active speed testing (paper §4.2 preamble).

    Args:
        server: the HDSS under repair.
        probe_size: probe read size in bytes (paper: ~1 KiB).
        noise: relative std-dev of the probe measurement.
    """

    def __init__(
        self,
        server: HighDensityStorageServer,
        probe_size: int = 1024,
        noise: float = 0.02,
    ) -> None:
        check_positive("probe_size", probe_size)
        if noise < 0:
            raise ConfigurationError(f"noise must be >= 0, got {noise}")
        self.server = server
        self.probe_size = int(probe_size)
        self.noise = float(noise)
        #: Last measured bandwidth per disk id.
        self.measured: Dict[int, float] = {}

    def probe_disk(self, disk_id: int) -> float:
        """Measure one disk; caches and returns bytes/second."""
        bw = self.server.disk(disk_id).probe(self.probe_size, noise=self.noise)
        self.measured[disk_id] = bw
        return bw

    def estimated_chunk_time(self, disk_id: int) -> float:
        """Chunk-size / measured-bandwidth (probing on demand)."""
        if disk_id not in self.measured:
            self.probe_disk(disk_id)
        return self.server.config.chunk_size / self.measured[disk_id]

    @property
    def probe_bytes_issued(self) -> int:
        """Total probe traffic (the active schemes' overhead)."""
        return self.probe_size * len(self.measured)


class PassiveMonitor:
    """Passive slow-disk detection via per-read timers (paper §4.3).

    Args:
        threshold: absolute seconds above which a chunk read marks its disk
            slow; if None, derived as ``threshold_ratio * expected_time``
            from observations so far.
        threshold_ratio: multiple of the running median read time that
            counts as slow when no absolute threshold is given.
    """

    def __init__(
        self,
        threshold: Optional[float] = None,
        threshold_ratio: float = 2.0,
    ) -> None:
        if threshold is not None:
            check_positive("threshold", threshold)
        if threshold_ratio <= 1.0:
            raise ConfigurationError(
                f"threshold_ratio must exceed 1, got {threshold_ratio}"
            )
        self.threshold = threshold
        self.threshold_ratio = float(threshold_ratio)
        self._slow: Set[int] = set()
        self._observations: List[float] = []
        # Derived-threshold cache: recomputing the median on every observe
        # would cost O(n log n) per read; refresh geometrically instead.
        self._cached_threshold: Optional[float] = None
        self._cached_at: int = 0
        #: (disk_id, seconds) log of every observed read.
        self.history: List[Tuple[int, float]] = []

    @property
    def slow_disks(self) -> List[int]:
        """Disks currently marked slow (sorted)."""
        return sorted(self._slow)

    def is_slow(self, disk_id: int) -> bool:
        return disk_id in self._slow

    def current_threshold(self) -> Optional[float]:
        """The effective slow threshold right now (None before any data).

        The derived (median-based) threshold is refreshed whenever the
        observation count has grown by 25% since the last refresh, keeping
        amortised observe() cost near O(1).
        """
        if self.threshold is not None:
            return self.threshold
        count = len(self._observations)
        if count == 0:
            return None
        if self._cached_threshold is None or count >= max(self._cached_at + 16, int(self._cached_at * 1.25)):
            self._cached_threshold = self.threshold_ratio * float(np.median(self._observations))
            self._cached_at = count
        return self._cached_threshold

    def observe(self, disk_id: int, seconds: float) -> bool:
        """Record one completed chunk read; returns True if marked slow."""
        if seconds < 0:
            raise ConfigurationError(f"negative read time {seconds}")
        self.history.append((disk_id, seconds))
        limit = self.current_threshold()
        self._observations.append(seconds)
        if limit is not None and seconds > limit:
            self._slow.add(disk_id)
            return True
        return False

    def clear(self, disk_id: Optional[int] = None) -> None:
        """Forget slow marks (one disk, or all)."""
        if disk_id is None:
            self._slow.clear()
        else:
            self._slow.discard(disk_id)
