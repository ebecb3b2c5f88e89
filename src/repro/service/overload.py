"""Adaptive overload control: deadlines, CoDel-style brownout, retry budgets.

A repair daemon melts down the same way any queueing system does: offered
load exceeds disk capacity, gate queues grow without bound, every request
waits behind every earlier one, and by the time a read reaches a spindle
its client has long stopped caring. The classic failure amplifiers are all
present here — repair traffic competing with the front door (Rashmi et
al.'s warehouse study), degraded reads being the first casualty (Xie et
al.), and client retries multiplying offered load exactly when capacity is
scarcest. This module is the service plane's answer, three mechanisms that
compose:

* **Deadlines** (:class:`Deadline`). Every request may carry a
  ``deadline_ms`` budget on the wire. The daemon stamps an absolute
  expiry at arrival and re-checks it at each queue hop — admission, gate
  wait, piggyback wait — so *doomed* work is shed before it consumes a
  disk slot, not after. An expired request costs a queue entry, never a
  seek.

* **The controller** (:class:`OverloadController`). A CoDel-flavored
  state machine over per-disk gate-wait observations. Like CoDel it keys
  on the *minimum* wait seen in a sliding interval — a burst that clears
  within one interval never trips it, a standing queue (where even the
  luckiest read waited too long) does. Sustained waits above ``target``
  brown the daemon out (repair reads are paced down); waits above
  ``shed_target`` escalate to shedding (degraded reads are refused with a
  retryable ``overload`` + ``retry_after_ms`` hint; plain reads only once
  a disk's queue passes ``queue_cap``). Priority is strict and inverse to
  cost: repair rounds are paced before any client work is refused, and
  expensive degraded decodes are refused before cheap healthy reads.

* **Retry budgets** (:class:`RetryBudget`). Client-side token buckets
  (one per endpoint) under the existing backoff/breaker stack: each
  first attempt earns a fraction of a token, each retry spends one. When
  the bucket runs dry the client surfaces the error instead of retrying,
  so a browned-out daemon sees offered load amplified by at most
  ``1 + ratio`` instead of a retry storm.

State machine (the ``stats`` verb's ``overload`` section, from which the
telemetry plane derives ``hdpsr_service_overload_state`` 0/1/2 at scrape
time)::

              min wait > target                min wait > shed_target
    healthy ───────────────────▶ browned_out ─────────────────────▶ shedding
       ▲                            │   ▲                              │
       └────── recovery_intervals ──┘   └────── recovery_intervals ────┘
               clean windows                    clean windows

Everything is clock-injected and seeded where it randomizes, so the chaos
harness replays the same brownout episode every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.errors import ConfigurationError, DeadlineExceededError, OverloadError
from repro.obs.context import current_registry

#: Work classes, cheapest-to-shed first. ``scrub`` is the cheapest of
#: all — pure background verification with no caller waiting — so it is
#: paced down the moment the daemon leaves ``healthy`` and parked
#: entirely while shedding; ``repair`` is never refused — the rebuild
#: must finish — only paced; ``degraded`` (k-survivor decode or
#: piggyback wait) is refused before ``read`` (healthy chunk).
CLASS_SCRUB = "scrub"
CLASS_REPAIR = "repair"
CLASS_DEGRADED = "degraded"
CLASS_READ = "read"

#: Daemon overload states; ``STATES`` holds them in escalation order, so a
#: state's index is its level (0 healthy / 1 browned-out / 2 shedding).
STATE_HEALTHY = "healthy"
STATE_BROWNED_OUT = "browned_out"
STATE_SHEDDING = "shedding"
STATES = (STATE_HEALTHY, STATE_BROWNED_OUT, STATE_SHEDDING)

#: Lower bound on the ``retry_after_ms`` hint of an ``overload`` refusal.
RETRY_AFTER_FLOOR_MS = 25.0

#: Counter: requests refused by the controller, by work class.
SHEDS = "hdpsr_service_sheds_total"
#: Counter: requests shed because their deadline had already expired, by hop.
DEADLINE_EXPIRED = "hdpsr_service_deadline_expired_total"
#: Counter: repair reads delayed by brownout pacing.
REPAIR_PACED = "hdpsr_service_repair_paced_total"
#: Counter: scrub verifies delayed (browned-out) or parked (shedding).
SCRUB_PACED = "hdpsr_service_scrub_paced_total"
#: Counter: state transitions, labelled from/to.
TRANSITIONS = "hdpsr_service_overload_transitions_total"


class Deadline:
    """An absolute expiry carried through every queue hop of one request.

    Args:
        expires_at: absolute expiry on ``clock``'s timeline.
        clock: monotonic time source (injectable for tests).
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(
        self, expires_at: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.expires_at = expires_at
        self._clock = clock

    @classmethod
    def from_budget_ms(
        cls,
        budget_ms: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        if budget_ms < 0:
            raise ConfigurationError(
                f"deadline budget must be >= 0 ms, got {budget_ms}"
            )
        return cls(clock() + budget_ms / 1000.0, clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, hop: str) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent.

        ``hop`` names the queue stage that found the corpse (``admission``,
        ``gate``, ``piggyback``) — it travels into the error reply and the
        ``hdpsr_service_deadline_expired_total`` counter, so an operator
        can see *where* doomed work is being caught.
        """
        remaining = self.remaining()
        if remaining <= 0.0:
            current_registry().counter(
                DEADLINE_EXPIRED,
                "requests shed because their deadline expired, by hop",
            ).labels(hop=hop).inc()
            raise DeadlineExceededError(
                f"deadline exceeded at {hop} ({-remaining * 1e3:.1f} ms past)",
                hop=hop, overshoot_seconds=-remaining,
            )


@dataclass(frozen=True)
class OverloadConfig:
    """Tuning knobs of one :class:`OverloadController`.

    Attributes:
        target_ms: acceptable per-disk gate wait; a sliding interval whose
            *minimum* wait exceeds this marks a standing queue (CoDel's
            persistence test) and browns the daemon out.
        shed_target_ms: minimum-wait level that escalates brownout to
            shedding.
        interval_ms: width of the sliding observation window.
        recovery_intervals: consecutive clean windows (min wait back under
            ``target_ms``) needed to de-escalate one level.
        idle_reset_s: a disk with no observations for this long is
            forgotten (its queue is empty by definition).
        repair_pace_ms: pause injected before each repair read while
            browned out; doubled while shedding.
        queue_cap: per-disk waiting-reader count beyond which even plain
            reads are refused while shedding (the hard backstop that
            bounds queue length, and therefore wait time, outright).
        scrub_brownout_factor: how much the scrub plane stretches its
            inter-verify pause while the daemon is browned out (shedding
            parks scrub outright, so no factor applies there).
    """

    target_ms: float = 5.0
    shed_target_ms: float = 50.0
    interval_ms: float = 100.0
    recovery_intervals: int = 2
    idle_reset_s: float = 2.0
    repair_pace_ms: float = 20.0
    queue_cap: int = 64
    scrub_brownout_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.target_ms <= 0 or self.shed_target_ms < self.target_ms:
            raise ConfigurationError(
                f"need 0 < target_ms <= shed_target_ms, got "
                f"{self.target_ms}/{self.shed_target_ms}"
            )
        if self.interval_ms <= 0:
            raise ConfigurationError(
                f"interval_ms must be > 0, got {self.interval_ms}"
            )
        if self.recovery_intervals < 1:
            raise ConfigurationError(
                f"recovery_intervals must be >= 1, got {self.recovery_intervals}"
            )
        if self.scrub_brownout_factor < 1.0:
            raise ConfigurationError(
                f"scrub_brownout_factor must be >= 1, got "
                f"{self.scrub_brownout_factor}"
            )


class _DiskWindow:
    """One disk's sliding CoDel window: min wait per interval, state level."""

    __slots__ = ("window_start", "min_wait", "level", "clean_windows", "last_seen")

    def __init__(self, now: float) -> None:
        self.window_start = now
        self.min_wait: Optional[float] = None
        self.level = 0
        self.clean_windows = 0
        self.last_seen = now


class OverloadController:
    """CoDel-style brownout controller over per-disk gate waits.

    One instance per :class:`~repro.service.service.RepairService`. The
    gate reports every admission wait via :meth:`observe_wait`; the front
    door asks :meth:`admit` before queueing client work; the repair path
    asks :meth:`repair_pause` before each survivor read. The daemon-wide
    :attr:`state` is the worst per-disk level, so one melting spindle is
    enough to brown the daemon out — which is correct: that spindle's
    queue is where the SLO dies.
    """

    def __init__(
        self,
        config: Optional[OverloadConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or OverloadConfig()
        self._clock = clock
        self._disks: Dict[int, _DiskWindow] = {}
        #: The disks whose level is above 0: the state reads only these.
        self._hot: Set[int] = set()
        self._last_min_wait = 0.0
        # --- tallies (also exported as metrics; kept here for `stats`) ---
        self.sheds: Dict[str, int] = {}
        self.deadline_expired = 0
        self.repair_paced = 0
        self.scrub_paced = 0
        self.transitions = 0
        self._rate_window_start = 0.0
        self._rate_count = 0
        self._rate_last = 0.0

    # -------------------------------------------------------------- state
    @property
    def state(self) -> str:
        """The daemon-wide overload state (worst disk wins).

        O(1) while every disk is at level 0; while some disk is hot, the
        hot disks idle past ``idle_reset_s`` are forgotten first."""
        if not self._hot:
            return STATE_HEALTHY
        now = self._clock()
        for d in [d for d in self._hot if self._stale(self._disks[d], now)]:
            self._forget(d)
        return STATES[max((self._disks[d].level for d in self._hot), default=0)]

    def _stale(self, win: _DiskWindow, now: float) -> bool:
        return now - win.last_seen > self.config.idle_reset_s

    def _forget(self, disk_id: int) -> None:
        """Drop an idle disk's window: its queue is empty by definition."""
        if self._disks.pop(disk_id).level:
            self._hot.discard(disk_id)
            self._note_transition()

    def _note_transition(self) -> None:
        self.transitions += 1
        current_registry().counter(
            TRANSITIONS, "overload state transitions"
        ).inc()

    # ------------------------------------------------------------- inputs
    def observe_wait(self, disk_id: int, waited_seconds: float) -> None:
        """Feed one gate-admission wait into ``disk_id``'s window."""
        c = self.config
        now = self._clock()
        win = self._disks.get(disk_id)
        if win is not None and self._stale(win, now):
            self._forget(disk_id)
            win = None
        if win is None:
            win = self._disks[disk_id] = _DiskWindow(now)
        win.last_seen = now
        if win.min_wait is None or waited_seconds < win.min_wait:
            win.min_wait = waited_seconds
        if now - win.window_start < c.interval_ms / 1000.0:
            return
        # Window rollover: judge the interval by its *minimum* wait.
        min_wait = win.min_wait if win.min_wait is not None else 0.0
        self._last_min_wait = max(self._last_min_wait, min_wait)
        before = win.level
        if min_wait > c.shed_target_ms / 1000.0:
            win.level = 2
            win.clean_windows = 0
        elif min_wait > c.target_ms / 1000.0:
            win.level = max(win.level, 1)
            win.clean_windows = 0
        else:
            win.clean_windows += 1
            if win.clean_windows >= c.recovery_intervals and win.level:
                win.level -= 1
                win.clean_windows = 0
            if win.level == 0:
                self._last_min_wait = 0.0
        if win.level != before:
            if win.level:
                self._hot.add(disk_id)
            else:
                self._hot.discard(disk_id)
            self._note_transition()
        win.window_start = now
        win.min_wait = None

    # ----------------------------------------------------------- verdicts
    def retry_after_ms(self) -> float:
        """The backoff hint attached to ``overload`` refusals: long enough
        for the standing queue the controller measured to drain once."""
        hint = max(
            RETRY_AFTER_FLOOR_MS,
            2.0 * self._last_min_wait * 1000.0,
            self.config.interval_ms,
        )
        return round(hint, 3)

    def _shed(self, work_class: str, reason: str) -> None:
        self.sheds[work_class] = self.sheds.get(work_class, 0) + 1
        now = self._clock()
        if now - self._rate_window_start >= 1.0:
            self._rate_last = self._rate_count / max(
                1e-9, now - self._rate_window_start
            ) if self._rate_window_start else 0.0
            self._rate_window_start = now
            self._rate_count = 0
        self._rate_count += 1
        current_registry().counter(
            SHEDS, "requests refused by the overload controller, by class"
        ).labels(work_class=work_class).inc()
        raise OverloadError(
            f"{work_class} read shed ({reason})",
            work_class=work_class,
            retry_after_ms=self.retry_after_ms(),
        )

    def admit(self, work_class: str, queue_depth: int = 0) -> None:
        """Gatekeep one piece of client work; raises :class:`OverloadError`
        when the current state sheds its class.

        ``queue_depth`` is the target disk's waiting-reader count; plain
        reads are only refused once it passes ``queue_cap`` (the backstop
        that keeps even the protected class's queue — and hence its wait —
        bounded while shedding).
        """
        state = self.state
        if state != STATE_SHEDDING:
            return
        if work_class == CLASS_SCRUB:
            self._shed(work_class, "shedding: scrub parked")
        if work_class == CLASS_DEGRADED:
            self._shed(work_class, "shedding: degraded decodes refused")
        if work_class == CLASS_READ and queue_depth >= self.config.queue_cap:
            self._shed(
                work_class,
                f"shedding: disk queue at cap ({queue_depth})",
            )

    def repair_pause(self) -> float:
        """Seconds the repair path must pause before its next survivor
        read (0 while healthy; doubled while shedding)."""
        state = self.state
        if state == STATE_HEALTHY:
            return 0.0
        pause = self.config.repair_pace_ms / 1000.0
        if state == STATE_SHEDDING:
            pause *= 2.0
        self.repair_paced += 1
        current_registry().counter(
            REPAIR_PACED, "repair reads delayed by brownout pacing"
        ).inc()
        return pause

    def scrub_throttle(self) -> Optional[float]:
        """Pace multiplier for the scrub plane's inter-verify pause.

        Returns ``1.0`` while healthy, ``scrub_brownout_factor`` while
        browned out (scrub slows but keeps making progress), and ``None``
        while shedding — the scrubber must park entirely and poll again
        later; background verification is the first work to stop when a
        spindle is melting. Non-1.0 outcomes tally ``scrub_paced``.
        """
        state = self.state
        if state == STATE_HEALTHY:
            return 1.0
        self.scrub_paced += 1
        current_registry().counter(
            SCRUB_PACED, "scrub verifies delayed or parked by brownout"
        ).inc()
        if state == STATE_SHEDDING:
            return None
        return self.config.scrub_brownout_factor

    def note_deadline_expired(self) -> None:
        """Tally one deadline shed (the metric itself is counted by
        :meth:`Deadline.check`; this keeps the ``stats`` mirror)."""
        self.deadline_expired += 1

    # ------------------------------------------------------------ scraping
    def sheds_per_second(self) -> float:
        """Recent shed rate (last completed ~1 s window)."""
        now = self._clock()
        if not self._rate_window_start:
            return 0.0
        elapsed = now - self._rate_window_start
        if elapsed >= 2.0:
            return 0.0  # window stale: nothing shed recently
        if elapsed >= 1.0:
            return self._rate_count / elapsed
        return self._rate_last or (self._rate_count / max(elapsed, 1e-3))

    def snapshot(self) -> dict:
        """The ``overload`` section of the daemon's ``stats`` snapshot."""
        return {
            "state": self.state,
            "sheds": dict(self.sheds),
            "sheds_total": sum(self.sheds.values()),
            "sheds_per_s": round(self.sheds_per_second(), 3),
            "deadline_expired": self.deadline_expired,
            "repair_paced": self.repair_paced,
            "scrub_paced": self.scrub_paced,
            "transitions": self.transitions,
            "retry_after_ms": self.retry_after_ms(),
            "browned_disks": sorted(self._hot),
        }


class RetryBudget:
    """Token bucket bounding a client's retry amplification per endpoint.

    Each first attempt deposits ``ratio`` tokens (capped at ``cap``); each
    retry withdraws one. When the bucket is empty :meth:`allow_retry`
    refuses, the caller surfaces the error, and offered load during a
    brownout is amplified by at most ``1 + ratio`` instead of the retry
    ladder's full depth. The gRPC-style throttle, clock-free and exact.

    Args:
        ratio: tokens earned per first attempt.
        cap: bucket capacity (also the initial balance, so short bursts
            of failures right after startup can still retry).
    """

    def __init__(self, ratio: float = 0.1, cap: float = 10.0) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ConfigurationError(f"retry ratio must be in [0, 1], got {ratio}")
        if cap < 1.0:
            raise ConfigurationError(f"retry budget cap must be >= 1, got {cap}")
        self.ratio = ratio
        self.cap = cap
        self.tokens = cap
        self.exhausted_count = 0

    def on_request(self) -> None:
        """A first (non-retry) attempt was issued: earn ``ratio`` tokens."""
        self.tokens = min(self.cap, self.tokens + self.ratio)

    def allow_retry(self) -> bool:
        """Spend one token for a retry; False (and tallies) when dry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        self.exhausted_count += 1
        current_registry().counter(
            "hdpsr_client_retry_budget_exhausted_total",
            "retries refused because the endpoint's token bucket ran dry",
        ).inc()
        return False
