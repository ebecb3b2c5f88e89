"""The repair memory as a sans-I/O ledger: the one meaning of ``c``.

``c`` budgets **in-flight survivor-chunk transfer buffers** (Equation 3): a
round takes ``len(round)`` slots all-or-nothing before its reads and returns
them once the chunks are folded in; accumulators are not charged
(``docs/algorithms.md``, "Execution semantics", has the reasoning and the
resident bound). The ledger only counts — it never blocks, locks or reads a
clock. It is ``server.memory``; the real-bytes driver, :mod:`repro.service`
(under the daemon and :func:`~repro.core.recovery.recover_disk` alike),
parks a refused round and retries first-fit on every release.
:meth:`SlotLedger.acquire` is the bare ledger's: a refusal raises.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator

from repro.errors import MemoryCapacityError, StorageError
from repro.utils.validation import check_positive


@dataclass
class SlotLedger:
    """``capacity`` (the paper's ``c``) chunk slots, taken in whole rounds."""

    capacity: int
    #: Slots held right now, and the most ever held.
    in_use: int = 0
    peak: int = 0
    #: Requests that had to park (ever), and those parked right now.
    waits: int = 0
    waiting: int = 0

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity)

    def try_acquire(self, n: int) -> bool:
        """Take ``n`` slots if all are free, never a part of them; raises
        when ``n > capacity`` (no release could grant it: a wait would hang)."""
        if not 0 < n <= self.capacity:
            raise MemoryCapacityError(
                f"a round of {n} chunks can never fit a memory of {self.capacity}"
            )
        if self.in_use + n > self.capacity:
            return False
        self.in_use += n
        self.peak = max(self.peak, self.in_use)
        return True

    def acquire(self, n: int) -> None:
        """The bare ledger's acquire: a refusal is a schedule bug and raises."""
        if not self.try_acquire(n):
            raise MemoryCapacityError(f"a round of {n} chunks does not fit {self!r}")

    def release(self, n: int) -> None:
        """Give ``n`` slots back."""
        if not 0 < n <= self.in_use:
            raise StorageError(f"releasing {n} slots but {self.in_use} are held")
        self.in_use -= n

    @contextlib.contextmanager
    def parked(self) -> Iterator[None]:
        """Bracket a refused request's wait (the blocking is the driver's)."""
        self.waits += 1
        self.waiting += 1
        try:
            yield
        finally:
            self.waiting -= 1

    def snapshot(self) -> Dict[str, int]:
        """The memory's state right now (JSON-safe, side-effect free)."""
        return {"capacity": self.capacity, "in_use": self.in_use,
                "peak": self.peak, "waiting": self.waiting}
