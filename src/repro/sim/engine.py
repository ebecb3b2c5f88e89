"""A minimal generator-based discrete-event kernel.

Processes are Python generators that ``yield`` events; the engine resumes a
process when its yielded event fires. Three event kinds cover everything the
storage simulation needs:

* :class:`Timeout` — fires after a simulated delay (a chunk transfer);
* :class:`AllOf` — fires when all child events have fired (a repair round's
  parallel chunk transfers completing);
* :class:`SlotResource.request` — fires when the requested number of memory
  chunk-slots has been granted.

The kernel is deterministic: ties in time are broken by schedule order, so
two runs of the same scenario produce identical timelines.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* once with an optional value; callbacks attached
    before or after triggering all run exactly once.
    """

    __slots__ = ("engine", "triggered", "value", "_callbacks")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.triggered:
            # Fire on the next engine step to preserve run-to-completion.
            self.engine.schedule(0.0, lambda: fn(self))
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event immediately (at the current simulated time)."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)
        return self


class Timeout(Event):
    """Event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        super().__init__(engine)
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        engine.schedule(delay, self.succeed, value)


class AllOf(Event):
    """Event that fires when every child event has fired.

    Its value is the list of child values in the original order.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            engine.schedule(0.0, self.succeed, [])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, _child: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class Process(Event):
    """Drives a generator; the process event fires when the generator ends.

    The generator yields :class:`Event` instances; the value sent back into
    the generator is the event's value.
    """

    __slots__ = ("_gen",)

    def __init__(self, engine: "Engine", gen: Generator[Event, Any, Any]) -> None:
        super().__init__(engine)
        self._gen = gen
        engine.schedule(0.0, self._step, None)

    def _step(self, send_value: Any) -> None:
        try:
            target = self._gen.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {type(target).__name__}, expected an Event"
            )
        target.add_callback(lambda ev: self._step(ev.value))


class SlotResource:
    """A counted resource with first-fit granting.

    Models the HDSS memory: ``capacity`` chunk slots; a repair round
    requests ``count`` slots and holds them for the duration of the round.

    Waiters are served in arrival order, except that a blocked request
    lets later ones overtake when they fit, so repair rounds pack into the
    free slots. A resource whose requests are all one slot (admission, a
    disk) therefore grants strictly first come, first served.
    """

    def __init__(self, engine: "Engine", capacity: int,
                 name: str = "slots") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        #: in arrival order: (count, event, t_req)
        self._waiters: List[Tuple[int, Event, float]] = []
        #: (time, slots-in-use) samples for utilisation accounting.
        self.occupancy_log: List[Tuple[float, int]] = [(0.0, 0)]

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def _log(self) -> None:
        self.occupancy_log.append((self.engine.now, self.in_use))

    def request(self, count: int) -> Event:
        """Return an event that fires once ``count`` slots are granted."""
        if count <= 0:
            raise SimulationError(f"slot request must be positive, got {count}")
        if count > self.capacity:
            raise SimulationError(
                f"request for {count} slots exceeds capacity {self.capacity}"
            )
        event = Event(self.engine)
        self._waiters.append((count, event, self.engine.now))
        self._dispatch()
        return event

    def release(self, count: int) -> None:
        """Return ``count`` slots to the pool and wake eligible waiters."""
        if count <= 0:
            raise SimulationError(f"slot release must be positive, got {count}")
        if count > self.in_use:
            raise SimulationError(
                f"releasing {count} slots but only {self.in_use} are in use"
            )
        self.in_use -= count
        self._log()
        tracer = self.engine.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "slot", f"{self.name}-release", ts=self.engine.now,
                track=self.name, domain="sim", count=count, in_use=self.in_use,
            )
        self._dispatch()

    def _grant(self, count: int, event: Event, t_req: float) -> None:
        self.in_use += count
        self._log()
        tracer = self.engine.tracer
        if tracer is not None and tracer.enabled:
            now = self.engine.now
            if now > t_req:
                tracer.complete(
                    "wait", f"{self.name}-wait", t_req, now - t_req,
                    track=self.name, domain="sim", count=count,
                )
            tracer.instant(
                "slot", f"{self.name}-acquire", ts=now,
                track=self.name, domain="sim", count=count, in_use=self.in_use,
            )
        event.succeed(count)

    def _dispatch(self) -> None:
        granted = True
        while granted and self._waiters:
            granted = False
            for idx, (count, event, t_req) in enumerate(self._waiters):
                if count <= self.available:
                    del self._waiters[idx]
                    self._grant(count, event, t_req)
                    granted = True
                    break

    def utilization(self, until: Optional[float] = None) -> float:
        """Time-averaged fraction of slots in use over [0, until]."""
        end = self.engine.now if until is None else until
        if end <= 0:
            return 0.0
        area = 0.0
        log = self.occupancy_log
        for (t0, occ), (t1, _) in zip(log, log[1:]):
            area += occ * (min(t1, end) - min(t0, end))
        last_t, last_occ = log[-1]
        if last_t < end:
            area += last_occ * (end - last_t)
        return area / (self.capacity * end)


class Engine:
    """The event loop: a time-ordered heap of scheduled callbacks.

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`, or None) makes slot
    resources emit acquire/release instants and wait spans in simulated
    time; executors layer transfer/round/stripe spans on top. None (the
    default) keeps the kernel observability-free and overhead-free.
    """

    def __init__(self, tracer=None) -> None:
        self.now: float = 0.0
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._counter = itertools.count()
        self._step_limit: Optional[int] = None

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._heap, (self.now + delay, next(self._counter), fn, args))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def slot_resource(self, capacity: int, name: str = "slots") -> SlotResource:
        return SlotResource(self, capacity, name=name)

    # -------------------------------------------------------------- execution
    def run(self, until: Optional[float] = None, max_steps: int = 50_000_000) -> float:
        """Drain the event heap; returns the final simulated time.

        Args:
            until: stop once the next event lies strictly beyond this time.
            max_steps: safety valve against runaway schedules.
        """
        steps = 0
        while self._heap:
            time, _seq, fn, args = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            if time < self.now - 1e-12:
                raise SimulationError(f"time went backwards: {time} < {self.now}")
            self.now = max(self.now, time)
            fn(*args)
            steps += 1
            if steps > max_steps:
                raise SimulationError(f"exceeded {max_steps} simulation steps")
        return self.now
