"""Per-disk read admission: bounded concurrency, foreground first.

A high-density chassis dies by seeking: letting every repair task hit the
same spindle concurrently turns sequential recovery reads into random I/O.
:class:`DiskGate` bounds in-flight reads per disk with a slot count per
spindle, and adds a single priority rule — a waiting *foreground* (client)
read parks new *background* (repair) admissions for its disk until it gets
a slot: a released slot passes to the first queued foreground read before
any background one. Repairs soak up whatever concurrency is left over;
user latency is not taxed by the rebuild. A free slot is taken without a
suspension, so an uncontended read pays a few attribute updates for its
admission.

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
import time
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional

from repro.core.slot_ledger import SlotLedger
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.obs.context import current_registry, current_tracer
from repro.obs.metrics import Family

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.service.overload import Deadline, OverloadController

#: Histogram of seconds spent waiting for a read slot, labelled by priority.
ADMISSION_WAIT = "hdpsr_service_admission_wait_seconds"
_WAITS = Family(
    "histogram", ADMISSION_WAIT, "seconds a read waited for a per-disk slot",
    label="priority",
)


class _DiskSlots:
    """One disk's slots: how many are held, and the reads queued for one.

    A released slot passes straight to the first queued foreground read,
    else to the first queued background one, and is freed only when no
    read waits. So a free slot means an empty queue: a read that finds
    one takes it without waiting, and a background read never takes a
    slot a queued foreground read was owed."""

    __slots__ = ("held", "foreground", "background")

    def __init__(self) -> None:
        self.held = 0
        self.foreground: Deque["asyncio.Future[None]"] = deque()
        self.background: Deque["asyncio.Future[None]"] = deque()

    def release(self) -> None:
        for queue in (self.foreground, self.background):
            while queue:
                waiter = queue.popleft()
                if not waiter.done():  # a cancelled wait is skipped
                    waiter.set_result(None)
                    return
        self.held -= 1


class _Slot:
    """``async with gate.read(disk)``: one read slot held for the block."""

    __slots__ = ("gate", "disk_id", "foreground", "deadline")

    def __init__(self, gate: "DiskGate", disk_id: int, foreground: bool,
                 deadline: Optional["Deadline"]) -> None:
        self.gate = gate
        self.disk_id = disk_id
        self.foreground = foreground
        self.deadline = deadline

    def __aenter__(self):
        return self.gate.acquire(self.disk_id, self.foreground, self.deadline)

    async def __aexit__(self, *exc) -> None:
        self.gate.release(self.disk_id)


class _Slots:
    """``async with gate.read_many(disks)``: one slot on each disk, taken in
    ascending disk order (as every holder of more than one gate takes
    them, so nothing deadlocks) and released in reverse."""

    __slots__ = ("slots", "held")

    def __init__(self, slots: List) -> None:
        self.slots = slots
        self.held = 0

    async def __aenter__(self) -> None:
        try:
            for slot in self.slots:
                await slot.__aenter__()
                self.held += 1
        except BaseException:
            await self.__aexit__(None, None, None)
            raise

    async def __aexit__(self, *exc) -> None:
        while self.held:
            self.held -= 1
            await self.slots[self.held].__aexit__(None, None, None)


class DiskGate:
    """Per-disk read-concurrency slots with foreground priority.

    Args:
        width: maximum concurrent reads per disk.
    """

    def __init__(self, width: int = 2) -> None:
        if width < 1:
            raise ConfigurationError(f"gate width must be >= 1, got {width}")
        self.width = width
        #: Every disk that has seen a read: its holders and queued reads.
        self._disks: Dict[int, _DiskSlots] = {}
        #: Optional overload controller fed every admission wait.
        self.controller: Optional["OverloadController"] = None

    def queue_depth(self, disk_id: int) -> int:
        """Total reads (both classes) queued on ``disk_id``.

        Safe to read from a worker thread: it only reads two queue lengths
        the event loop updates. The scrub plane's runs poll it between
        chunks to yield the disk to a queued read."""
        slots = self._disks.get(disk_id)
        return 0 if slots is None else len(slots.foreground) + len(slots.background)

    def depths(self) -> Dict[int, Dict[str, int]]:
        """Per-disk gate state right now — the gate's one self-description.

        Only disks that have ever seen a read appear; each entry reports
        slot occupancy and queued readers by priority class.
        """
        return {
            disk_id: {
                "width": self.width,
                "inflight": slots.held,
                "waiting_foreground": len(slots.foreground),
                "waiting_background": len(slots.background),
            }
            for disk_id, slots in sorted(self._disks.items())
        }

    def read(
        self,
        disk_id: int,
        foreground: bool = False,
        deadline: Optional["Deadline"] = None,
    ) -> _Slot:
        """Hold one read slot on ``disk_id`` for the body of an ``async
        with`` block.

        When ``deadline`` is given, the wait for a slot is bounded by the
        request's remaining budget: an expired request raises
        :class:`~repro.errors.DeadlineExceededError` (hop ``"gate"``)
        instead of taking a slot it can no longer use in time.
        """
        return _Slot(self, disk_id, foreground, deadline)

    def read_many(
        self,
        disk_ids: Iterable[int],
        foreground: bool = False,
        deadline: Optional["Deadline"] = None,
    ) -> _Slots:
        """:meth:`read` on each of ``disk_ids`` for one ``async with``
        block, in ascending disk order."""
        return _Slots([
            self.read(disk_id, foreground=foreground, deadline=deadline)
            for disk_id in sorted(disk_ids)
        ])

    async def acquire(
        self,
        disk_id: int,
        foreground: bool = False,
        deadline: Optional["Deadline"] = None,
    ) -> None:
        """Take one read slot on ``disk_id`` (:meth:`read`'s entry; give it
        back with :meth:`release`). A free slot is taken without waiting."""
        slots = self._disks.get(disk_id)
        if slots is None:
            slots = self._disks[disk_id] = _DiskSlots()
        if deadline is not None:
            deadline.check("gate")
        started: Optional[float] = None
        waited = 0.0
        if slots.held < self.width:
            slots.held += 1
        else:
            started = time.monotonic()
            await self._wait(slots, foreground, deadline)
            waited = time.monotonic() - started
        if self.controller is not None:
            self.controller.observe_wait(disk_id, waited)
        priority = "foreground" if foreground else "background"
        _WAITS(current_registry(), priority).observe(waited)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.complete(
                "wait", f"gate:disk-{disk_id}",
                time.monotonic() if started is None else started, waited,
                track="gate", domain="wall", disk=disk_id, priority=priority,
            )

    def release(self, disk_id: int) -> None:
        """Give back one slot :meth:`acquire` took on ``disk_id``."""
        self._disks[disk_id].release()

    @staticmethod
    async def _wait(
        slots: _DiskSlots, foreground: bool, deadline: Optional["Deadline"]
    ) -> None:
        """Queue for a slot by priority class until a release hands one
        over, bounded by ``deadline`` when one is given."""
        waiter = asyncio.get_running_loop().create_future()
        queue = slots.foreground if foreground else slots.background
        queue.append(waiter)
        try:
            if deadline is None:
                await waiter
            else:
                try:
                    await asyncio.wait_for(waiter, timeout=deadline.remaining())
                except asyncio.TimeoutError:
                    deadline.check("gate")  # raises once the budget is spent
                    raise DeadlineExceededError(
                        "gate wait timed out at the deadline", hop="gate"
                    ) from None
        except BaseException:
            if waiter.done() and not waiter.cancelled():
                slots.release()  # handed a slot it will not use: pass it on
            else:
                waiter.cancel()
                if waiter in queue:
                    queue.remove(waiter)
            raise


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
