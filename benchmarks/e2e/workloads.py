"""Workload shapes and the phase plan of one run.

BENCHMARK.json holds only the keys the driver's contract allows, so the
sizes live here. Every workload is the same *lifecycle* of real
``hdpsr serve`` daemons, gone through ``cycles`` times a run (see
README.md); the shape decides how many bytes each operation moves, and
therefore which layers dominate.

All shapes: RS(9,6), 12 disks + 3 spares, rotating placement, 4 store
shards, journal on, fsync on, daemon defaults otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

N, K, NUM_DISKS, SHARDS = 9, 6, 12, 4

#: One round per entry: (disk to fail, repair it under the foreground
#: stream?). Rotating placement puts each stripe on 9 consecutive disks of
#: 12, so every stripe holds exactly three of disks 0/3/6/9 — one rebuilt
#: shard per spare, and never more than one disk down at a time.
ROUNDS = ((0, False), (3, True), (6, False), (9, True))

#: A measured window shorter than this sets ``window_too_short``.
MIN_WINDOW_S = 3.0

#: Shares of ``--seconds`` given to the time-boxed phases (the read phases
#: split theirs evenly over every round of every cycle, the scrub phase
#: over the cycles). Repairs are fixed work (they take what they take); at
#: the sizes below they fill the remaining share on the box that produced
#: the first baseline.
CLOSED_SHARE, OPEN_SHARE, SCRUB_SHARE = 0.15, 0.30, 0.15

#: Seconds between two polls of the ``scrub`` verb: one rate sample each.
SCRUB_POLL_S = 0.25


@dataclass(frozen=True)
class Shape:
    """One workload's constants.

    Attributes:
        chunk_size: bytes per chunk.
        rotations: full placement rotations; stripes = rotations * 12 and
            each disk holds rotations * 9 chunks.
        cycles: daemon lifecycles per run (each: a main daemon through
            every round, then a scrub daemon).
        open_rate: req/s of the open-loop read phase.
        fg_rate: req/s of the foreground stream during the loaded repair.
        mix_block: in the closed and open read phases one target in this
            many sits on the failed disk.
    """

    chunk_size: int
    rotations: int
    cycles: int
    open_rate: float
    fg_rate: float
    mix_block: int = 5

    @property
    def stripes(self) -> int:
        return self.rotations * NUM_DISKS

    @property
    def chunks_per_disk(self) -> int:
        return self.rotations * N

    @property
    def disk_size(self) -> int:
        return self.chunks_per_disk * self.chunk_size

    def tiny(self) -> "Shape":
        """The ``--selftest`` version: same code paths, a few seconds."""
        return replace(
            self, chunk_size=self.chunk_size // 8, rotations=1, cycles=1,
            open_rate=40.0, fg_rate=40.0,
        )


#: Why each exists is BENCHMARK.json's ``why`` (and README.md's table).
SHAPES = {
    "chunks_64k": Shape(
        chunk_size=64 * 1024, rotations=1, cycles=3,
        open_rate=20.0, fg_rate=10.0,
    ),
    "chunks_16k": Shape(
        chunk_size=16 * 1024, rotations=3, cycles=3,
        open_rate=40.0, fg_rate=20.0,
    ),
}
