"""The schedule interpreter: mutate a live server as the repair clock runs.

:class:`FaultInjector` binds a :class:`~repro.faults.spec.FaultSchedule` to
a :class:`~repro.hdss.server.HighDensityStorageServer` and, as the
data path advances its logical clock past event times, really fails
disks, really poisons chunks, and really collapses bandwidth — so every
downstream consequence (``DiskFailedError`` on read, decode re-planning,
data loss) is exercised for real rather than signaled by a flag. It is the
only interpreter: the timing simulators run the paper's fault-free
timeline.

Approximation note: the data-path injector applies events at **read
boundaries** — the clock only moves when a read completes, so an event at
``t`` fires before the first read that starts at or after ``t``. Reads are
atomic; a fault cannot corrupt half a chunk.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ec.stripe import ChunkId
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.hdss.store import FaultyChunkStore
from repro.obs import current_registry, current_tracer


class SimulatedCrash(BaseException):
    """A scripted ``process_crash`` event killed the repair process.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so no
    retry/replan handler in the repair stack can accidentally absorb it —
    a SIGKILL is not a storage fault to route around. The CLI catches it
    at top level, points at ``--resume``, and exits with
    :data:`repro.faults.report.EXIT_CRASHED`.
    """

    def __init__(self, event: FaultEvent) -> None:
        super().__init__(
            f"simulated process crash at t={event.at:.6f}s (scripted fault)"
        )
        self.event = event


class FaultInjector:
    """Applies a :class:`FaultSchedule` to a live server as time advances.

    Usage: construct, call :meth:`attach` once (wraps the server's store so
    sector errors can be injected), then call :meth:`advance` with the
    driver's logical clock after every modeled transfer. ``advance``
    returns the events that just fired so the caller can react (re-plan,
    retry) immediately.
    """

    def __init__(
        self, server, schedule: FaultSchedule, *, skip_crashes: int = 0
    ) -> None:
        self.server = server
        self.schedule = schedule
        self._pending: List[FaultEvent] = list(schedule)
        self._next = 0
        #: ``process_crash`` events to swallow before raising again — a
        #: resumed run already "survived" the crashes that fired in prior
        #: incarnations (one per resume, plus the original).
        self.skip_crashes = skip_crashes
        self._crashes_skipped = 0
        #: Active transient windows per disk: list of (window_end, factor).
        self._windows: Dict[int, List[Tuple[float, float]]] = {}
        #: Events actually applied, by kind (feeds DataLossReport).
        self.applied: Dict[str, int] = {}
        self._attached = False

    # ---------------------------------------------------------------- attach
    def attach(self) -> "FaultInjector":
        """Wrap the server's store for sector-error injection (idempotent)."""
        if not self._attached:
            if not isinstance(self.server.store, FaultyChunkStore):
                self.server.store = FaultyChunkStore(self.server.store)
            self._attached = True
        return self

    @property
    def exhausted(self) -> bool:
        """True once every event has fired and every window has closed."""
        return self._next >= len(self._pending) and not any(self._windows.values())

    def next_change_time(self) -> float:
        """Earliest future time at which state will change (``inf`` if none).

        Lets the read clock's forced read wait *just* long enough for a hang
        window to close instead of guessing.
        """
        times = [e.at for e in self._pending[self._next :]]
        times += [end for wins in self._windows.values() for (end, _) in wins]
        return min(times, default=float("inf"))

    # --------------------------------------------------------------- advance
    def advance(self, now: float) -> List[FaultEvent]:
        """Apply every event due at or before ``now``; return those applied.

        Window closings (heals) and event arrivals are interleaved in time
        order, so a slow window that ends before the next event starts is
        healed first — exactly the sequence a wall clock would produce.
        """
        fired: List[FaultEvent] = []
        while True:
            ev_time = (
                self._pending[self._next].at
                if self._next < len(self._pending)
                else float("inf")
            )
            heal_time = min(
                (end for wins in self._windows.values() for (end, _) in wins),
                default=float("inf"),
            )
            if min(ev_time, heal_time) > now:
                break
            if heal_time <= ev_time:
                self._close_windows(heal_time)
            else:
                event = self._pending[self._next]
                self._next += 1
                if self._apply(event):
                    fired.append(event)
        return fired

    def _close_windows(self, upto: float) -> None:
        """Expire windows ending at/before ``upto``; restore or re-degrade."""
        for disk_id in sorted(self._windows):
            wins = self._windows[disk_id]
            live = [(end, f) for (end, f) in wins if end > upto]
            if len(live) == len(wins):
                continue
            self._windows[disk_id] = live
            disk = self.server.disk(disk_id)
            if disk.is_failed:
                continue
            if live:
                # An overlapping window is still open — keep its collapse.
                disk.degrade(max(f for (_, f) in live))
            else:
                disk.heal()
        self._windows = {d: w for d, w in self._windows.items() if w}

    def _apply(self, event: FaultEvent) -> bool:
        """Mutate server state for one event; False when it was a no-op."""
        if event.kind == "process_crash":
            if self._crashes_skipped < self.skip_crashes:
                self._crashes_skipped += 1
                return False  # already fired in a previous incarnation
            self.applied[event.kind] = self.applied.get(event.kind, 0) + 1
            self._observe(event)
            raise SimulatedCrash(event)
        disk_id = event.disk
        if disk_id >= len(self.server.disks):
            return False  # spec targets a disk this server doesn't have
        disk = self.server.disk(disk_id)
        if event.kind == "disk_fail":
            if disk.is_failed:
                return False
            self.server.fail_disk(disk_id, destroy_data=True)
            self._windows.pop(disk_id, None)
        elif event.kind == "sector_error":
            if disk.is_failed:
                return False
            self.attach()
            self.server.store.mark_bad(
                disk_id, ChunkId(int(event.stripe), int(event.shard))
            )
        else:  # slow / hang
            if disk.is_failed:
                return False
            self._windows.setdefault(disk_id, []).append(
                (event.window_end, event.effective_factor)
            )
            disk.degrade(max(f for (_, f) in self._windows[disk_id]))
        self.applied[event.kind] = self.applied.get(event.kind, 0) + 1
        self._observe(event)
        return True

    @staticmethod
    def _observe(event: FaultEvent) -> None:
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "hdpsr_faults_injected_total", "Fault events applied to the server."
            ).labels(kind=event.kind).inc()
        tracer = current_tracer()
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "fault",
                event.kind,
                at=event.at,
                disk=event.disk,
                stripe=event.stripe,
                shard=event.shard,
            )

