"""Wall-clock I/O: threaded repairs against rate-paced disks.

Everything else in this repository measures repair time on a simulated
clock. This package provides the *real-time* counterpart — the closest
Python analogue of the paper's Go prototype:

* :mod:`repro.io.pacing` — :class:`PacedDisk` serves one request at a time
  at a configured bandwidth (a lock plus a sleep), which is exactly how an
  HDD behaves under sequential repair reads; heterogeneous/slow disks are
  just different rates;
* :mod:`repro.io.wallclock` — :class:`WallClockRepairExecutor` runs a
  repair plan with real threads: stripes repair concurrently under the
  ``c``-slot ledger (:mod:`repro.core.slot_ledger`), each round's chunks
  are fetched in parallel worker threads, and partial sums fold through
  :class:`~repro.ec.partial.PartialDecoder`. Elapsed wall time is the
  measurement.

Python's GIL is irrelevant here because the bottleneck being modelled is
I/O pacing (sleeps release the GIL) — the reason the calibration note says
a naive pure-Python port would "hide parallelism effects" does not apply
to sleep-paced transfers.
"""

from repro.io.pacing import PacedDisk, PacedDiskArray
from repro.io.wallclock import WallClockRepairExecutor, WallClockStats

__all__ = [
    "PacedDisk",
    "PacedDiskArray",
    "WallClockRepairExecutor",
    "WallClockStats",
]
