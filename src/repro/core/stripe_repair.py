"""One stripe's repair as a sans-I/O state machine: the single salvage ladder.

HD-PSR is, per stripe, one small machine: read a round of at most ``c``
survivor chunks, fold them into ``t`` partial sums, repeat until ``k`` are
in — and when a survivor dies mid-stripe, keep the sums and re-plan the
remaining reads. :class:`StripeRepair` is that machine and nothing else. It
owns the stripe's :class:`~repro.ec.partial.PartialDecoder`, the queue of
rounds still to read, the outcome and the ladder counters; it performs no
read, takes no lock and never looks at a clock. One driver *performs* what
it says — the asyncio :class:`~repro.service.service.RepairService`, under
the daemon and under :func:`~repro.core.recovery.recover_disk` alike — and
keeps only what is genuinely its own: how a round is read, how time is
priced, memory accounting, journaling, fencing and quarantine.

The ladder (:meth:`StripeRepair.on_fault`):

1. *salvage* — ``PartialDecoder.replan`` swaps the remaining reads and keeps
   every fed chunk (only ``k - t`` reads remain); whatever the stripe lost
   meanwhile (a corrupt survivor, a dead disk) joins the targets;
2. *restart* — when the salvage system is singular, decode from scratch on
   ``k`` readable shards (only for a dead shard: a slow one still has the
   data, so it is forced through instead of discarding progress);
3. *lost* — fewer than ``k`` readable shards remain; the stripe is recorded,
   never raised.

:class:`ReadPolicy` carries the timeout / retry / hedge decision as one pure
function of ``(duration, attempt)``. What a read, a timeout or a wait
*costs* is :class:`ReadClock`'s: one serial logical clock the driver prices
every survivor read on, and that a fault schedule fires against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ec.partial import PartialDecoder
from repro.ec.stripe import ChunkId, Stripe
from repro.errors import CodingError, ConfigurationError, DiskFailedError
from repro.faults.report import LOST, RECOVERED, REPLANNED

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

#: :meth:`ReadPolicy.decide` verdicts.
READ_OK = "ok"
READ_RETRY = "retry"
READ_SLOW = "slow"
#: Shared by :meth:`ReadPolicy.decide` and :meth:`StripeRepair.on_fault`:
#: read this shard with no timeout, waiting the slowness out.
FORCE = "force"
#: :meth:`StripeRepair.on_fault` verdict: re-planned, keep reading rounds.
CONTINUE = "continue"

#: Counters a stripe accumulates; ``DataPathStats`` and ``DataLossReport``
#: carry fields of the same names, which :meth:`StripeRepair.fold_into` uses.
LADDER_COUNTERS = ("replans", "fresh_restarts", "salvaged_chunks", "hedged_reads")


@dataclass(frozen=True)
class ReadPolicy:
    """Knobs for hardening survivor reads against slow and hung disks.

    Attributes:
        timeout_seconds: a read whose modeled duration exceeds this is
            abandoned (the clock still pays the timeout) and retried after
            backoff. ``None`` disables timeouts entirely.
        max_retries: retry budget per read before giving up on the disk.
        backoff_base: first backoff sleep, seconds; attempt ``i`` sleeps
            ``backoff_base * 2**i`` (capped), letting transient windows end.
        backoff_cap: upper bound on a single backoff sleep.
        hedge: after the retry budget, re-plan the read onto a different
            survivor instead of forcing it through the slow disk.
    """

    timeout_seconds: Optional[float] = None
    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    hedge: bool = False

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ConfigurationError(
                f"need 0 <= backoff_base <= backoff_cap, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff sleep before retry ``attempt`` (0-based), capped."""
        return min(self.backoff_base * (2.0 ** attempt), self.backoff_cap)

    def decide(self, duration: float, attempt: int) -> Tuple[str, float]:
        """What to do with a read modeled to take ``duration`` seconds.

        Returns ``(verdict, penalty)``; ``penalty`` is the modeled time the
        attempt wasted (timeout plus, for a retry, the backoff sleep) and is
        non-zero exactly when the read timed out:

        * :data:`READ_OK` — issue the read;
        * :data:`READ_RETRY` — timed out with budget left: pay ``penalty``,
          re-price the disk and decide again with ``attempt + 1``;
        * :data:`READ_SLOW` — budget spent: give up on this disk and hedge
          onto another survivor;
        * :data:`FORCE` — budget spent and hedging is off: timeouts alone
          never lose data, so the read goes through at degraded speed.
        """
        if self.timeout_seconds is None or duration <= self.timeout_seconds:
            return READ_OK, 0.0
        if attempt < self.max_retries:
            return READ_RETRY, self.timeout_seconds + self.backoff(attempt)
        return (READ_SLOW if self.hedge else FORCE), self.timeout_seconds


class ShardFault(Exception):
    """A survivor read that did not deliver: dead (with cause) or slow.

    ``cause`` is the underlying error of a permanently unreadable shard
    (disk failed, chunk missing, latent sector / checksum error); ``None``
    means the disk is alive but the read exhausted its retry budget.
    """

    def __init__(self, shard: int, cause: Optional[Exception] = None) -> None:
        super().__init__(
            str(cause) if cause is not None else f"retries exhausted on shard {shard}"
        )
        self.shard = shard
        self.cause = cause

    @property
    def dead(self) -> bool:
        return self.cause is not None


class ReadClock:
    """The one serial logical clock survivor reads are priced on.

    The driver prices every read with :meth:`price`. ``now`` is the running
    sum of every priced read, timeout and wait, in seconds of unjittered
    transfer time, so it is a pure function of server state and read order.
    An ``injector`` (a :class:`~repro.faults.injector.FaultInjector` bound
    to ``server``) fires its schedule as ``now`` passes event times: an
    event at ``t`` fires as the first read priced at or after ``t`` is
    issued, so a timed fault lands at the same read on every run.

    Args:
        server: whose disks are priced (their state, not their bytes).
        policy: read-hardening knobs; ``None`` reads without timeouts.
    """

    def __init__(self, server, policy: Optional[ReadPolicy] = None) -> None:
        self.server = server
        self.policy = policy
        #: The fault schedule to fire as the clock advances; the driver binds it.
        self.injector: Optional["FaultInjector"] = None
        #: Seconds of priced transfer, timeouts, backoff and waits.
        self.now = 0.0

    def price(self, disk_id: int, shard: int, stats, forced: bool = False) -> float:
        """Price one survivor read of ``shard`` on ``disk_id``; return its
        duration, already charged to :attr:`now` — the read is issued next.

        Timeouts and retries count into ``stats``. A read whose retries are
        spent with hedging off — or one the caller ``forced`` (a slow shard
        no other survivor can replace) — waits transient windows out: the
        clock jumps to the schedule's next change until the disk answers.

        Raises:
            ShardFault: dead — the disk failed (also while we waited); slow
                — the policy's retries are exhausted and hedging is enabled.
            SimulatedCrash: a scripted ``process_crash`` came due.
        """
        server, policy, injector = self.server, self.policy, self.injector
        size = server.config.chunk_size
        attempt = 0
        while True:
            if injector is not None:
                injector.advance(self.now)
            disk = server.disk(disk_id)
            if disk.is_failed:
                raise ShardFault(shard, DiskFailedError(f"disk {disk_id} failed"))
            # Unjittered so the clock is a pure function of state — jitter
            # would consume RNG draws and perturb runs that share the server.
            duration = disk.transfer_time(size, jittered=False)
            if forced or policy is None:
                break
            verdict, penalty = policy.decide(duration, attempt)
            if penalty:
                stats.timeouts += 1
                self.now += penalty
            if verdict == READ_SLOW:
                raise ShardFault(shard)
            if verdict == READ_RETRY:
                stats.retries += 1
                attempt += 1
                continue
            forced = verdict == FORCE
            break
        while forced:
            # Timeouts alone never lose data: block until the disk answers.
            disk = server.disk(disk_id)
            if disk.is_failed:
                raise ShardFault(shard, DiskFailedError(f"disk {disk_id} failed"))
            duration = disk.transfer_time(size, jittered=False)
            horizon = injector.next_change_time() if injector is not None else math.inf
            if not disk.is_slow or horizon <= self.now or math.isinf(horizon):
                break
            self.now = horizon
            injector.advance(self.now)
        self.now += duration
        return duration

    def due(self) -> bool:
        """Whether the injector's next change is at or before :attr:`now`:
        the next :meth:`price` fires it. A driver holding priced reads it
        has not issued yet issues them first, so the change lands between
        reads, never under one already priced."""
        injector = self.injector
        return injector is not None and injector.next_change_time() <= self.now


def rounds_of(shard_ids: Sequence[int], per_round: int) -> List[List[int]]:
    """Split ``shard_ids`` into read rounds of at most ``per_round`` chunks."""
    per_round = max(1, per_round)
    return [
        list(shard_ids[i : i + per_round])
        for i in range(0, len(shard_ids), per_round)
    ]


def readable_shards(
    server,
    si: int,
    stripe: Stripe,
    exclude: Sequence[int] = (),
    skip: Optional[Callable[[int, ChunkId], bool]] = None,
    limit: Optional[int] = None,
) -> List[int]:
    """Shards with a live disk and a readable chunk, fast disks first.

    ``skip(disk_id, chunk_id)`` lets a driver veto chunks the store cannot
    know about (the service's quarantine). With ``limit``, the store is
    asked about shards in that order only until ``limit`` have answered:
    the result is the first ``limit`` of the unlimited one.
    """
    disks = server.disks
    order = sorted(
        (disks[disk_id].is_slow, sid) for sid, disk_id in enumerate(stripe.disks)
    )
    out: List[int] = []
    for _, sid in order:
        if limit is not None and len(out) >= limit:
            break
        disk_id = stripe.disks[sid]
        if sid in exclude or disks[disk_id].is_failed:
            continue
        cid = ChunkId(si, sid)
        if not server.store.is_readable(disk_id, cid):
            continue
        if skip is not None and skip(disk_id, cid):
            continue
        out.append(sid)
    return out


class StripeRepair:
    """The repair of one stripe: decoder, read queue, outcome, counters.

    Build one with :meth:`fresh` (from the stripe's plan). Rounds are not
    journaled: a stripe interrupted mid-decode starts :meth:`fresh` again.
    """

    def __init__(
        self, decoder: Optional[PartialDecoder], queue: List[List[int]], plan
    ) -> None:
        #: ``None`` when the stripe started with fewer than ``k`` survivors.
        self.decoder = decoder
        #: Rounds (of shard ids) still to read, in order.
        self.queue = queue
        #: RECOVERED until a fault re-plans (REPLANNED) or defeats (LOST) it.
        self.outcome = RECOVERED if decoder is not None else LOST
        # Post-failure rounds must fit alongside the accumulators even when
        # the original plan was single-round (its budget had no acc slots).
        self.per_round = plan.peak_memory_chunks() - len(decoder.targets) if decoder else 1
        self.replans = 0
        self.fresh_restarts = 0
        self.salvaged_chunks = 0
        self.hedged_reads = 0
        self._round: List[int] = []
        # What this stripe has learnt about its survivors, so the ladder
        # cannot bounce between two bad ones forever: a shard that faulted
        # dead is never planned onto again (a store may only find a CRC
        # mismatch by reading, and keep listing the chunk as readable), and
        # a hedge never goes back to a shard it already gave up on as slow.
        self._dead: Set[int] = set()
        self._slow: Set[int] = set()

    @classmethod
    def fresh(
        cls, code, shards: Sequence[int], targets: Sequence[int], plan,
        chunk_size: int, readable: Sequence[int],
    ) -> "StripeRepair":
        """Start a stripe from its :class:`~repro.core.plans.StripePlan`.

        ``shards`` are the k survivor shard ids the plan reads; the plan's
        rounds are column positions into them. ``targets`` are the shards
        the stripe has lost *now*; a plan survivor among them is swapped, in
        its column, for the next of ``readable`` (:func:`readable_shards`
        now) the plan does not read. Too few: LOST before any read.
        """
        spares = iter([s for s in readable if s not in shards and s not in targets])
        shards = [next(spares, None) if s in targets else s for s in shards]
        if None in shards:
            return cls(None, [], plan)
        decoder = PartialDecoder(code, shards, targets, chunk_size=chunk_size)
        queue = [[shards[col] for col in rnd] for rnd in plan.rounds]
        return cls(decoder, queue, plan)

    # ----------------------------------------------------------------- rounds
    def next_round(self) -> List[int]:
        """The next shards to read — only ones still pending; ``[]`` = done."""
        while self.queue:
            pending = set(self.decoder.pending)
            self._round = [s for s in self.queue.pop(0) if s in pending]
            if self._round:
                return self._round
        return []

    def feed(self, fed: Mapping[int, np.ndarray]) -> None:
        """Fold successfully read chunks into the partial sums.

        Pure computation on state only the stripe's driver touches, so it
        may run on a worker thread while the driver waits.
        """
        self.decoder.feed(fed)

    # ----------------------------------------------------------------- ladder
    def on_fault(
        self, fault: ShardFault, readable: Sequence[int], lost: Sequence[int]
    ) -> str:
        """Re-plan around a shard that did not deliver.

        Call after feeding whatever the round did read. ``readable`` is
        :func:`readable_shards` of the stripe *now* and ``lost`` the shards
        it has lost now: a salvage or restart rebuilds those too. Returns

        * :data:`CONTINUE` — salvaged or restarted; :meth:`next_round`
          serves the new rounds;
        * :data:`FORCE` — a slow shard with no alternative survivor: a slow
          disk still has the data, so never restart or lose the stripe over
          it; read ``fault.shard`` with no timeout and :meth:`feed` it (if
          that read dies, report the dead fault here again);
        * :data:`~repro.faults.report.LOST` — fewer than ``k`` readable
          shards remain; ``outcome`` is LOST and no rounds remain.
        """
        decoder = self.decoder
        k, t = decoder.code.k, len(decoder.targets)
        targets = decoder.targets + [s for s in lost if s not in decoder.targets]
        (self._dead if fault.dead else self._slow).add(fault.shard)
        out = set(targets) | self._dead
        if not fault.dead:
            out |= self._slow
        candidates = [s for s in readable if s not in out]
        fed = set(decoder.fed)
        pending_alive = [s for s in decoder.pending if s in candidates]
        fresh = [s for s in candidates if s not in pending_alive and s not in fed]
        # Last choice: re-read fed shards (their reads repeat, but the
        # accumulator still saves t reads versus a full restart).
        refed = [s for s in candidates if s in fed]
        new_reads = (pending_alive + fresh + refed)[: k - t]
        if len(new_reads) == k - t:
            try:
                decoder.replan(new_reads, targets)
            except CodingError:
                pass  # singular salvage system; fall through to restart
            else:
                self.replans += 1
                self.salvaged_chunks += len(decoder.fed)
                if not fault.dead:
                    self.hedged_reads += 1
                return self._replanned()
        if not fault.dead:
            # Back at the front: whatever else of this round is still unread.
            self.queue.insert(0, [s for s in self._round if s != fault.shard])
            return FORCE
        if len(candidates) >= k:  # fed shards are re-readable
            decoder.restart(candidates[:k], targets)
            self.fresh_restarts += 1
            return self._replanned()
        self.outcome = LOST
        self.queue = []
        return LOST

    def _replanned(self) -> str:
        self.outcome = REPLANNED
        self.queue = rounds_of(self.decoder.pending, self.per_round)
        return CONTINUE

    def fold_into(self, sink) -> None:
        """Add this stripe's ladder counters onto ``sink``'s same-named fields."""
        for name in LADDER_COUNTERS:
            setattr(sink, name, getattr(sink, name) + getattr(self, name))
