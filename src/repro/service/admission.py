"""Per-disk read admission: bounded concurrency, foreground first.

A high-density chassis dies by seeking: letting every repair task hit the
same spindle concurrently turns sequential recovery reads into random I/O.
:class:`DiskGate` bounds in-flight reads per disk with one semaphore per
spindle, and adds a single priority rule — a waiting *foreground* (client)
read parks new *background* (repair) admissions for its disk until it gets
a slot. Repairs soak up whatever concurrency is left over; user latency is
not taxed by the rebuild.

Admission wait is recorded per priority class into the ambient metrics
registry (``hdpsr_service_admission_wait_seconds``), which is how the
benchmark suite shows what repair pressure does to the front door. The
gate describes itself once: :meth:`DiskGate.depths` is its per-disk
occupancy and queue depth right now, which the telemetry plane reads at
scrape time for the ``stats`` verb and the ``hdpsr_service_gate_*`` gauges
alike. When a tracer is recording, every admission wait emits a ``wait``
span stamped with the requesting span context, so a slow client read shows
*which disk's* gate it queued on and for how long.

The gate is also where overload control taps in. Every admission wait is
reported to the optional :attr:`DiskGate.controller` (a
:class:`~repro.service.overload.OverloadController`), which runs
CoDel-style windows over the *minimum* wait per disk to distinguish a
standing queue from a transient burst. Reads carrying a
:class:`~repro.service.overload.Deadline` stop waiting the moment their
budget expires — a doomed request must not ride out the queue just to
occupy a slot its client already gave up on.

:class:`SlotWaiter` is the second admission rule, over chunks not spindles:
how a round waits on the :class:`~repro.core.slot_ledger.SlotLedger`.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import TYPE_CHECKING, AsyncIterator, Dict, List, Optional

from repro.core.slot_ledger import SlotLedger
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.obs.context import current_registry, current_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.service.overload import Deadline, OverloadController

#: Histogram of seconds spent waiting for a read slot, labelled by priority.
ADMISSION_WAIT = "hdpsr_service_admission_wait_seconds"


class DiskGate:
    """Per-disk read-concurrency semaphores with foreground priority.

    Args:
        width: maximum concurrent reads per disk.
    """

    def __init__(self, width: int = 2) -> None:
        if width < 1:
            raise ConfigurationError(f"gate width must be >= 1, got {width}")
        self.width = width
        self._sems: Dict[int, asyncio.Semaphore] = {}
        #: Reads currently holding a slot, per disk.
        self._inflight: Dict[int, int] = {}
        #: Background reads currently queued, per disk.
        self._bg_waiting: Dict[int, int] = {}
        #: Foreground reads currently queued, per disk (priority rule).
        self._fg_waiting: Dict[int, int] = {}
        #: Set when a disk has no foreground waiters (background may enter).
        self._fg_clear: Dict[int, asyncio.Event] = {}
        #: Optional overload controller fed every admission wait.
        self.controller: Optional["OverloadController"] = None

    def _sem(self, disk_id: int) -> asyncio.Semaphore:
        sem = self._sems.get(disk_id)
        if sem is None:
            sem = self._sems[disk_id] = asyncio.Semaphore(self.width)
        return sem

    def _clear_event(self, disk_id: int) -> asyncio.Event:
        event = self._fg_clear.get(disk_id)
        if event is None:
            event = self._fg_clear[disk_id] = asyncio.Event()
            event.set()
        return event

    def queue_depth(self, disk_id: int) -> int:
        """Total reads (both classes) queued on ``disk_id``.

        Safe to read from a worker thread: it only reads two counters the
        event loop updates. The scrub plane's runs poll it between chunks
        to yield the disk to a queued read."""
        return self._fg_waiting.get(disk_id, 0) + self._bg_waiting.get(disk_id, 0)

    def depths(self) -> Dict[int, Dict[str, int]]:
        """Per-disk gate state right now — the gate's one self-description.

        Only disks that have ever seen a read appear; each entry reports
        slot occupancy and queued readers by priority class.
        """
        disks = set(self._sems)
        out: Dict[int, Dict[str, int]] = {}
        for disk_id in sorted(disks):
            out[disk_id] = {
                "width": self.width,
                "inflight": self._inflight.get(disk_id, 0),
                "waiting_foreground": self._fg_waiting.get(disk_id, 0),
                "waiting_background": self._bg_waiting.get(disk_id, 0),
            }
        return out

    async def _acquire_background(
        self, sem: asyncio.Semaphore, event: asyncio.Event
    ) -> None:
        # Background defers to any queued foreground read: wait for the
        # disk's foreground queue to drain before competing.
        while not event.is_set():
            await event.wait()
        await sem.acquire()

    @contextlib.asynccontextmanager
    async def read(
        self,
        disk_id: int,
        foreground: bool = False,
        deadline: Optional["Deadline"] = None,
    ) -> AsyncIterator[None]:
        """Hold one read slot on ``disk_id`` for the body of the block.

        When ``deadline`` is given, the wait for a slot is bounded by the
        request's remaining budget: an expired request raises
        :class:`~repro.errors.DeadlineExceededError` (hop ``"gate"``)
        instead of taking a slot it can no longer use in time.
        """
        sem = self._sem(disk_id)
        event = self._clear_event(disk_id)
        if deadline is not None:
            deadline.check("gate")
        started = time.monotonic()
        if foreground:
            self._fg_waiting[disk_id] = self._fg_waiting.get(disk_id, 0) + 1
            event.clear()
        else:
            self._bg_waiting[disk_id] = self._bg_waiting.get(disk_id, 0) + 1
        try:
            if foreground:
                pending = sem.acquire()
            else:
                pending = self._acquire_background(sem, event)
            if deadline is None:
                await pending
            else:
                try:
                    await asyncio.wait_for(pending, timeout=deadline.remaining())
                except asyncio.TimeoutError:
                    deadline.check("gate")  # raises once the budget is spent
                    raise DeadlineExceededError(
                        "gate wait timed out at the deadline", hop="gate"
                    ) from None
        finally:
            if foreground:
                self._fg_waiting[disk_id] -= 1
                if self._fg_waiting[disk_id] == 0:
                    event.set()
            else:
                self._bg_waiting[disk_id] -= 1
        waited = time.monotonic() - started
        if self.controller is not None:
            self.controller.observe_wait(disk_id, waited)
        priority = "foreground" if foreground else "background"
        current_registry().histogram(
            ADMISSION_WAIT, "seconds a read waited for a per-disk slot"
        ).labels(priority=priority).observe(waited)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.complete(
                "wait", f"gate:disk-{disk_id}", started, waited,
                track="gate", domain="wall", disk=disk_id, priority=priority,
            )
        self._inflight[disk_id] = self._inflight.get(disk_id, 0) + 1
        try:
            yield
        finally:
            self._inflight[disk_id] -= 1
            sem.release()


class SlotWaiter:
    """The event loop's way to wait on the repair memory: a refused round
    parks until the next release, which wakes every parked round to retry —
    first-fit, so a wide FSR round does not bar a narrow HD-PSR one.
    :meth:`release` never awaits: it runs in ``finally`` blocks under
    cancellation and ``SimulatedCrash``."""

    def __init__(self, ledger: SlotLedger) -> None:
        self.ledger = ledger
        #: One future per parked round, resolved by the next release.
        self._parked: List["asyncio.Future[None]"] = []

    async def acquire(self, count: int) -> None:
        if not self.ledger.try_acquire(count):
            with self.ledger.parked():
                # No await between a refusal and the parking: no release unseen.
                while not self.ledger.try_acquire(count):
                    woken = asyncio.get_running_loop().create_future()
                    self._parked.append(woken)
                    await woken

    def release(self, count: int) -> None:
        self.ledger.release(count)
        parked, self._parked = self._parked, []
        for woken in parked:
            if not woken.done():  # a cancelled round is simply skipped
                woken.set_result(None)
