"""Structured event tracing for the repair stack.

A *trace* is an ordered list of :class:`TraceEvent`: **spans** (an interval
with a duration — a chunk transfer, a repair round, a decode) and
**instants** (a point occurrence — a slot grant, a plan admission). Events
carry a free-form ``category`` (the conventional ones are ``read``,
``decode``, ``round``, ``stripe``, ``writeback``, ``wait``, ``phase``,
``profile``), a ``track`` (one timeline lane, e.g. a worker thread or the
disk array) and a ``domain`` separating clock bases: ``"sim"`` timestamps
are simulated seconds from the event kernel, ``"wall"`` timestamps are
``time.perf_counter()`` seconds. Exporters keep domains on separate
process rows so the two time bases never get visually conflated.

The default tracer is :data:`NULL_TRACER`, whose every method is a no-op —
``span()`` hands out one shared no-op context manager, so a span body is
written once, and call sites guard ``complete()`` / ``instant()`` in hot
loops with ``tracer.enabled`` so the disabled path costs one attribute
read. :class:`RecordingTracer` collects
events in memory (thread-safe, globally sequenced) for export via
:mod:`repro.obs.exporters`.

**Request tracing.** When a :class:`SpanContext` is installed (see
:func:`use_span`), every event a :class:`RecordingTracer` emits is stamped
with ``trace_id``/``span_id`` (and ``parent_id``) in its args, and nested
``span()`` blocks mint child contexts — so one client request's path
through the daemon exports as a connected span tree, greppable by
``trace_id`` in JSONL and visible in the Chrome trace's args.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Iterator, List, Optional

#: Conventional span/instant categories used by the built-in call sites.
CATEGORIES = ("read", "decode", "round", "stripe", "writeback", "wait",
              "phase", "profile", "slot", "plan", "request")


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class SpanContext:
    """Identity of one span inside one request trace.

    Attributes:
        trace_id: id shared by every span of one request (16 hex chars).
        span_id: this span's own id.
        parent_id: the enclosing span's id; ``None`` for a trace root.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child(self) -> "SpanContext":
        """A fresh child context: same trace, new span, parented here."""
        return SpanContext(
            trace_id=self.trace_id, span_id=_new_id(), parent_id=self.span_id
        )

    def to_wire(self) -> Dict[str, str]:
        """The JSON-safe form carried in protocol messages."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, fields: object) -> Optional["SpanContext"]:
        """Rebuild a context from a wire dict; None when absent/malformed."""
        if not isinstance(fields, dict):
            return None
        trace_id = fields.get("trace_id")
        span_id = fields.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


def new_span_context(trace_id: Optional[str] = None) -> SpanContext:
    """Mint a root span context (new ``trace_id`` unless given)."""
    return SpanContext(trace_id=trace_id or _new_id(), span_id=_new_id())


_span_var: contextvars.ContextVar[Optional[SpanContext]] = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def current_span() -> Optional[SpanContext]:
    """The span context in scope, or None outside any traced request."""
    return _span_var.get()


@contextmanager
def use_span(ctx: Optional[SpanContext]) -> Iterator[Optional[SpanContext]]:
    """Install ``ctx`` as the current span context for the ``with`` body.

    Asyncio tasks created inside the scope inherit it, so spans emitted
    by a repair submitted during a traced request stay connected to it.
    """
    token = _span_var.set(ctx)
    try:
        yield ctx
    finally:
        _span_var.reset(token)


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    Attributes:
        name: human-readable event name (``"stripe-17/round-2"``).
        category: coarse grouping used for filtering (see :data:`CATEGORIES`).
        ts: start timestamp in seconds (domain-relative, see ``domain``).
        duration: span length in seconds; ``None`` marks an instant event.
        track: timeline lane (thread name, ``"disks"``, ``"multi"``, ...).
        domain: clock base — ``"sim"`` or ``"wall"``.
        depth: nesting level of context-manager spans (0 for top level and
            for spans emitted post-hoc via :meth:`Tracer.complete`).
        seq: global emission order, ties in ``ts`` break deterministically.
        args: free-form payload (stripe index, chunk count, disk id...).
    """

    name: str
    category: str
    ts: float
    duration: Optional[float] = None
    track: str = "main"
    domain: str = "wall"
    depth: int = 0
    seq: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_span(self) -> bool:
        return self.duration is not None

    @property
    def end(self) -> float:
        return self.ts + (self.duration or 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (one JSONL line)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "ts": self.ts,
            "track": self.track,
            "domain": self.domain,
            "depth": self.depth,
            "seq": self.seq,
        }
        if self.duration is not None:
            out["dur"] = self.duration
        if self.args:
            out["args"] = self.args
        return out


#: What the inert tracer's ``span`` hands out: one shared, re-enterable no-op,
#: so a call site writes ``with tracer.span(...)`` once, whoever is listening.
_NO_SPAN = nullcontext()


class Tracer:
    """Tracer interface; the base class is inert (every method no-ops).

    Subclasses override :meth:`_emit`. Call sites use three verbs:

    * :meth:`span` — a ``with`` block measured on the wall clock;
    * :meth:`complete` — a span whose start/duration the caller already
      knows (the simulators, which live in simulated time);
    * :meth:`instant` — a point event.
    """

    #: Fast guard for hot loops: ``if tracer.enabled: tracer.complete(...)``.
    enabled: bool = False

    def _emit(self, event: TraceEvent) -> None:  # pragma: no cover - inert
        pass

    def span(self, category: str, name: str, track: str = "main",
             **args: Any) -> ContextManager[None]:
        """Wall-clock span covering the ``with`` body."""
        return _NO_SPAN

    def complete(self, category: str, name: str, start: float,
                 duration: float, track: str = "main", domain: str = "sim",
                 **args: Any) -> None:
        """Record an already-finished span with explicit timestamps."""

    def instant(self, category: str, name: str, ts: Optional[float] = None,
                track: str = "main", domain: str = "wall",
                **args: Any) -> None:
        """Record a point event (``ts=None`` reads the wall clock)."""


class NullTracer(Tracer):
    """The default tracer: does nothing, costs (almost) nothing."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NullTracer()"


#: Process-wide inert tracer; shared singleton.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Collects events in memory; thread-safe; export via ``exporters``.

    Args:
        clock: wall-clock source for :meth:`span`/:meth:`instant`
            (default ``time.perf_counter``; injectable for tests).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._depths: Dict[Any, int] = {}  # (thread ident, track) -> depth
        self.events: List[TraceEvent] = []

    def _emit(self, event: TraceEvent) -> None:
        with self._lock:
            object.__setattr__(event, "seq", self._seq)
            self._seq += 1
            self.events.append(event)

    @staticmethod
    def _stamp(args: Dict[str, Any], ctx: Optional[SpanContext]) -> Dict[str, Any]:
        """Merge a span context's ids into an event's args."""
        if ctx is None:
            return args
        stamped = dict(args)
        stamped["trace_id"] = ctx.trace_id
        stamped["span_id"] = ctx.span_id
        if ctx.parent_id is not None:
            stamped["parent_id"] = ctx.parent_id
        return stamped

    @contextmanager
    def span(self, category: str, name: str, track: str = "main",
             **args: Any) -> Iterator[None]:
        key = (threading.get_ident(), track)
        with self._lock:
            depth = self._depths.get(key, 0)
            self._depths[key] = depth + 1
        parent = current_span()
        ctx = parent.child() if parent is not None else None
        token = _span_var.set(ctx) if ctx is not None else None
        start = self._clock()
        try:
            yield
        finally:
            duration = self._clock() - start
            if token is not None:
                _span_var.reset(token)
            with self._lock:
                self._depths[key] = depth
            self._emit(TraceEvent(
                name=name, category=category, ts=start, duration=duration,
                track=track, domain="wall", depth=depth,
                args=self._stamp(args, ctx),
            ))

    def complete(self, category: str, name: str, start: float,
                 duration: float, track: str = "main", domain: str = "sim",
                 **args: Any) -> None:
        parent = current_span()
        ctx = parent.child() if parent is not None else None
        self._emit(TraceEvent(
            name=name, category=category, ts=start, duration=duration,
            track=track, domain=domain, args=self._stamp(args, ctx),
        ))

    def instant(self, category: str, name: str, ts: Optional[float] = None,
                track: str = "main", domain: str = "wall",
                **args: Any) -> None:
        self._emit(TraceEvent(
            name=name, category=category,
            ts=self._clock() if ts is None else ts,
            track=track, domain=domain,
            args=self._stamp(args, current_span()),
        ))

    # ------------------------------------------------------------- queries
    def spans(self, category: Optional[str] = None) -> List[TraceEvent]:
        """Span events, emission-ordered, optionally category-filtered."""
        return [e for e in self.events
                if e.is_span and (category is None or e.category == category)]

    def instants(self, category: Optional[str] = None) -> List[TraceEvent]:
        """Instant events, emission-ordered, optionally filtered."""
        return [e for e in self.events
                if not e.is_span and (category is None or e.category == category)]

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
            self._depths.clear()
            self._seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"RecordingTracer({len(self.events)} events)"


class OffsetTracer(Tracer):
    """Delegates to another tracer, shifting explicit timestamps.

    Used when a caller replays several independently-simulated phases on
    one timeline (e.g. naive multi-disk repair runs one simulation per
    failed disk, each starting at simulated t=0): wrap the real tracer
    with the phase's cumulative start offset and nested ``complete``/
    ``instant`` events land at their true position.

    Wall-clock ``span`` blocks pass through unshifted — they are already
    on a monotonic shared clock.
    """

    def __init__(self, inner: Tracer, offset: float) -> None:
        self.inner = inner
        self.offset = float(offset)
        self.enabled = inner.enabled

    def span(self, category: str, name: str, track: str = "main", **args: Any):
        return self.inner.span(category, name, track=track, **args)

    def complete(self, category: str, name: str, start: float,
                 duration: float, track: str = "main", domain: str = "sim",
                 **args: Any) -> None:
        self.inner.complete(category, name, start + self.offset, duration,
                            track=track, domain=domain, **args)

    def instant(self, category: str, name: str, ts: Optional[float] = None,
                track: str = "main", domain: str = "wall",
                **args: Any) -> None:
        self.inner.instant(category, name,
                           ts=None if ts is None else ts + self.offset,
                           track=track, domain=domain, **args)

    def __repr__(self) -> str:
        return f"OffsetTracer(+{self.offset}, {self.inner!r})"
