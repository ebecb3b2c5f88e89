"""Graceful-degradation reporting: what a faulted recovery actually saved.

When fewer than ``k`` readable shards remain for a stripe the repair no
longer throws — it records the stripe as *lost* here and keeps going, so a
single unlucky stripe cannot abort the rescue of every other one. The
report carries per-stripe outcomes plus the retry/hedge/replan accounting
the CLI and tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


#: Per-stripe outcomes.
RECOVERED = "recovered"
REPLANNED = "recovered-after-replan"
LOST = "lost"

#: CLI exit code for a recovery that lost data.
EXIT_DATA_LOSS = 3

#: CLI exit code for a repair killed by a scripted ``process_crash``
#: (the run is resumable with ``--resume`` when journaled).
EXIT_CRASHED = 4


@dataclass
class DataLossReport:
    """Outcome of one recovery run under (possible) faults.

    ``stripes`` maps every repaired stripe index to :data:`RECOVERED`,
    :data:`REPLANNED`, or :data:`LOST`. The counters quantify the recovery
    side's work: how often reads timed out and were retried, how many reads
    were hedged to a different survivor, how many stripes were re-planned,
    and — the HD-PSR payoff — how many already-read chunks the running
    decode salvaged versus how many had to be read again.
    """

    stripes: Dict[int, str] = field(default_factory=dict)
    #: Faults the injector actually applied (by kind).
    faults_injected: Dict[str, int] = field(default_factory=dict)
    #: Reads that timed out at least once.
    timeouts: int = 0
    #: Timed-out reads retried after backoff.
    retries: int = 0
    #: Reads re-issued against a different survivor (hedging).
    hedged_reads: int = 0
    #: Stripes whose decode was re-planned onto a new survivor set.
    replans: int = 0
    #: Stripes that fell back from salvage to a from-scratch decode.
    fresh_restarts: int = 0
    #: Already-fed chunks whose reads the running decode made reusable.
    salvaged_chunks: int = 0
    #: Chunks read more than once because salvage was not possible.
    reread_chunks: int = 0
    #: Chunk reads that failed their digest verify (silent corruption).
    checksum_failures: int = 0
    #: Stripes whose terminal outcome was replayed from the journal.
    resumed_stripes: int = 0
    #: Journaled chunk payloads re-put during replay (zero disk reads).
    replayed_chunks: int = 0

    # ----------------------------------------------------------------- state
    def record(self, stripe_index: int, outcome: str) -> None:
        if outcome not in (RECOVERED, REPLANNED, LOST):
            raise ValueError(f"unknown stripe outcome {outcome!r}")
        self.stripes[int(stripe_index)] = outcome

    @property
    def recovered(self) -> List[int]:
        return sorted(s for s, o in self.stripes.items() if o == RECOVERED)

    @property
    def replanned(self) -> List[int]:
        return sorted(s for s, o in self.stripes.items() if o == REPLANNED)

    @property
    def lost(self) -> List[int]:
        return sorted(s for s, o in self.stripes.items() if o == LOST)

    @property
    def has_loss(self) -> bool:
        return any(o == LOST for o in self.stripes.values())

    @property
    def degraded(self) -> bool:
        """True when the run needed re-planning or lost data (warn-worthy)."""
        return self.has_loss or bool(self.replanned) or self.fresh_restarts > 0

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    @property
    def exit_code(self) -> int:
        """CLI convention: 0 for full recovery (replans warn), 3 for loss."""
        return EXIT_DATA_LOSS if self.has_loss else 0

    def count_fault(self, kind: str, n: int = 1) -> None:
        self.faults_injected[kind] = self.faults_injected.get(kind, 0) + n

    def summary(self) -> Dict[str, object]:
        return {
            "stripes": len(self.stripes),
            "recovered": len(self.recovered),
            "recovered_after_replan": len(self.replanned),
            "lost": len(self.lost),
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "timeouts": self.timeouts,
            "retries": self.retries,
            "hedged_reads": self.hedged_reads,
            "replans": self.replans,
            "fresh_restarts": self.fresh_restarts,
            "salvaged_chunks": self.salvaged_chunks,
            "reread_chunks": self.reread_chunks,
            "checksum_failures": self.checksum_failures,
            "resumed_stripes": self.resumed_stripes,
            "replayed_chunks": self.replayed_chunks,
            "exit_code": self.exit_code,
        }

    def __repr__(self) -> str:
        return (
            f"DataLossReport(recovered={len(self.recovered)}, "
            f"replanned={len(self.replanned)}, lost={len(self.lost)}, "
            f"faults={self.total_faults})"
        )
