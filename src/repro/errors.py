"""Exception hierarchy for the HD-PSR reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing configuration mistakes from runtime storage faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """A parameter combination is invalid (e.g. ``k >= n`` or ``c < P_a``)."""


class CodingError(ReproError):
    """Erasure-coding failure: not enough shards, singular decode matrix, ..."""


class InsufficientShardsError(CodingError):
    """Fewer than ``k`` surviving shards are available for reconstruction."""


class StorageError(ReproError):
    """A (simulated or file-backed) storage operation failed."""


class DiskFailedError(StorageError):
    """An I/O was issued against a disk currently marked as failed."""


class LatentSectorError(StorageError):
    """A single chunk is unreadable (URE) while the rest of its disk serves I/O."""


class ChunkChecksumError(LatentSectorError):
    """A stored chunk's bytes disagree with its digest.

    Subclasses :class:`LatentSectorError` on purpose: silent corruption is
    handled exactly like an unreadable sector — the shard is treated as
    dead, the repair re-plans around it, and the stripe is surfaced as
    degraded instead of crashing the recovery.
    """


class ChunkQuarantinedError(StorageError):
    """A read addressed a chunk the scrub plane has quarantined.

    Quarantine is the window between a failed verify and the completed
    read-repair: the on-disk bytes are known-bad, so serving them — even
    to a caller who would checksum them again — is never acceptable.
    Foreground reads of a quarantined chunk degrade through decode
    instead; callers that cannot degrade receive this error with the
    chunk's coordinates and retry after the read-repair lands.
    """

    def __init__(
        self, message: str, disk: int = -1, stripe: int = -1, shard: int = -1,
    ) -> None:
        super().__init__(message)
        self.disk = disk
        self.stripe = stripe
        self.shard = shard


class JournalError(StorageError):
    """The repair journal is missing, malformed, or inconsistent with the run."""


class ChunkNotFoundError(StorageError, KeyError):
    """The requested chunk does not exist on the addressed disk."""


class MemoryCapacityError(StorageError):
    """A repair round requested more chunk slots than the memory owns."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class PlanError(ReproError):
    """A repair plan is malformed (empty rounds, overlapping chunks, ...)."""


class DeadlineExceededError(ReproError):
    """A request's deadline expired before the work could be done.

    Raised at queue hops (admission, gate wait, piggyback wait) so doomed
    work is shed before it consumes a disk slot. ``hop`` names the stage
    that caught it; ``overshoot_seconds`` is how far past the deadline the
    check ran.
    """

    def __init__(
        self, message: str, hop: str = "admission", overshoot_seconds: float = 0.0
    ) -> None:
        super().__init__(message)
        self.hop = hop
        self.overshoot_seconds = overshoot_seconds


class OverloadError(ReproError):
    """The overload controller refused a request (brownout shedding).

    Carries the work class that was shed and a ``retry_after_ms`` hint the
    daemon puts on the wire so clients back off long enough for the
    standing queue to drain instead of retrying into it.
    """

    def __init__(
        self,
        message: str,
        work_class: str = "read",
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.work_class = work_class
        self.retry_after_ms = retry_after_ms


class ClusterError(ReproError):
    """A multi-daemon cluster operation failed (leases, ownership, handoff)."""


class LeaseError(ClusterError):
    """A lease record is missing, malformed, or could not be written."""


class FencedError(ClusterError):
    """A daemon tried to commit under a lease epoch it no longer holds.

    Raised by the epoch fence before journal commits and chunk write-backs:
    a stale owner that revives after its shards were claimed by a peer must
    never write again, or the survivor's byte-identical journal replay (and
    the chunks it already persisted) could be silently clobbered.
    """

    def __init__(
        self, message: str, shard: int = -1, held_epoch: int = -1,
        current_epoch: int = -1,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.held_epoch = held_epoch
        self.current_epoch = current_epoch


class NotOwnerError(ClusterError):
    """The addressed daemon does not own the shard a request targets.

    Carries enough for the client to redirect: the owning node's id,
    endpoint, and the lease epoch under which it owns the shard.
    """

    def __init__(
        self, message: str, shard: int = -1, owner: "str | None" = None,
        endpoint: "str | None" = None, epoch: int = -1,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.owner = owner
        self.endpoint = endpoint
        self.epoch = epoch
