"""Tracer behaviour: span nesting, ordering, offsets, the null default."""

from __future__ import annotations

import threading

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    OffsetTracer,
    RecordingTracer,
    SpanContext,
    TraceEvent,
    current_span,
    new_span_context,
    use_span,
)


class FakeClock:
    """Deterministic monotonic clock: each call advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("round", "r0"):
            pass
        NULL_TRACER.complete("read", "chunk", 0.0, 1.0)
        NULL_TRACER.instant("plan", "built")
        assert isinstance(NULL_TRACER, NullTracer)

    def test_singleton_shared(self):
        from repro.obs import tracer as mod

        assert mod.NULL_TRACER is NULL_TRACER


class TestRecordingTracer:
    def test_span_records_wall_duration(self):
        t = RecordingTracer(clock=FakeClock())
        with t.span("decode", "partial decode", track="worker", chunks=4):
            pass
        (e,) = t.events
        assert e.is_span
        assert e.category == "decode"
        assert e.track == "worker"
        assert e.domain == "wall"
        assert e.duration == 1.0
        assert e.args == {"chunks": 4}

    def test_nested_spans_depth_and_emission_order(self):
        t = RecordingTracer(clock=FakeClock())
        with t.span("stripe", "outer"):
            with t.span("round", "mid"):
                with t.span("read", "inner"):
                    pass
        # Spans are emitted on exit: innermost first.
        assert [e.name for e in t.events] == ["inner", "mid", "outer"]
        depths = {e.name: e.depth for e in t.events}
        assert depths == {"outer": 0, "mid": 1, "inner": 2}
        # seq reflects emission order and is strictly increasing.
        assert [e.seq for e in t.events] == [0, 1, 2]

    def test_depth_tracked_per_track(self):
        t = RecordingTracer(clock=FakeClock())
        with t.span("stripe", "a", track="t1"):
            with t.span("stripe", "b", track="t2"):
                pass
        depths = {e.name: e.depth for e in t.events}
        assert depths == {"a": 0, "b": 0}  # separate lanes, both top-level

    def test_depth_restored_after_exception(self):
        t = RecordingTracer(clock=FakeClock())
        try:
            with t.span("round", "boom"):
                raise ValueError("x")
        except ValueError:
            pass
        with t.span("round", "after"):
            pass
        assert {e.name: e.depth for e in t.events} == {"boom": 0, "after": 0}

    def test_complete_and_instant(self):
        t = RecordingTracer(clock=FakeClock())
        t.complete("read", "chunk", start=2.5, duration=0.5, track="disk-3",
                    disk=3)
        t.instant("slot", "acquire", ts=3.0, domain="sim")
        span, inst = t.events
        assert span.is_span and span.ts == 2.5 and span.end == 3.0
        assert span.domain == "sim"  # complete() defaults to sim time
        assert not inst.is_span and inst.ts == 3.0

    def test_thread_safety_of_seq(self):
        t = RecordingTracer()
        n, workers = 200, 8

        def emit():
            for i in range(n):
                t.instant("slot", f"e{i}")

        threads = [threading.Thread(target=emit) for _ in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        seqs = sorted(e.seq for e in t.events)
        assert seqs == list(range(n * workers))

    def test_queries_and_clear(self):
        t = RecordingTracer(clock=FakeClock())
        with t.span("round", "r0"):
            pass
        t.instant("plan", "built")
        assert len(t.spans()) == 1
        assert len(t.spans("round")) == 1
        assert t.spans("read") == []
        assert len(t.instants("plan")) == 1
        t.clear()
        assert len(t) == 0
        t.instant("plan", "again")
        assert t.events[0].seq == 0  # sequence restarts after clear


class TestOffsetTracer:
    def test_shifts_complete_and_instant(self):
        inner = RecordingTracer(clock=FakeClock())
        off = OffsetTracer(inner, 10.0)
        off.complete("round", "r", start=1.0, duration=2.0)
        off.instant("slot", "s", ts=4.0)
        span, inst = inner.events
        assert span.ts == 11.0
        assert inst.ts == 14.0

    def test_wall_span_passes_through_unshifted(self):
        inner = RecordingTracer(clock=FakeClock())
        off = OffsetTracer(inner, 100.0)
        with off.span("decode", "d"):
            pass
        (e,) = inner.events
        assert e.ts < 100.0  # fake clock starts at 0; no shift applied

    def test_enabled_mirrors_inner(self):
        assert OffsetTracer(NULL_TRACER, 5.0).enabled is False
        assert OffsetTracer(RecordingTracer(), 5.0).enabled is True


class TestTraceEvent:
    def test_to_dict_roundtrip_fields(self):
        e = TraceEvent(name="n", category="read", ts=1.0, duration=0.5,
                       track="t", domain="sim", depth=2, seq=7,
                       args={"disk": 1})
        d = e.to_dict()
        assert d == {"name": "n", "cat": "read", "ts": 1.0, "dur": 0.5,
                     "track": "t", "domain": "sim", "depth": 2, "seq": 7,
                     "args": {"disk": 1}}

    def test_instant_omits_duration(self):
        d = TraceEvent(name="i", category="slot", ts=3.0).to_dict()
        assert "dur" not in d and "args" not in d


class TestSpanContext:
    def test_child_keeps_trace_and_parents_here(self):
        root = new_span_context()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_wire_roundtrip(self):
        ctx = new_span_context()
        wired = SpanContext.from_wire(ctx.to_wire())
        assert wired.trace_id == ctx.trace_id
        assert wired.span_id == ctx.span_id

    def test_from_wire_rejects_malformed(self):
        assert SpanContext.from_wire(None) is None
        assert SpanContext.from_wire("nope") is None
        assert SpanContext.from_wire({"trace_id": "a"}) is None
        assert SpanContext.from_wire({"trace_id": 1, "span_id": "b"}) is None

    def test_use_span_installs_and_restores(self):
        assert current_span() is None
        ctx = new_span_context()
        with use_span(ctx):
            assert current_span() is ctx
        assert current_span() is None

    def test_nested_spans_stamp_child_lineage(self):
        tracer = RecordingTracer(clock=FakeClock())
        root = new_span_context()
        with use_span(root):
            with tracer.span("request", "outer"):
                inner_ctx = current_span()
                with tracer.span("decode", "inner"):
                    pass
        inner, outer = tracer.events  # inner closes first
        assert outer.args["trace_id"] == root.trace_id
        assert outer.args["parent_id"] == root.span_id
        assert inner.args["trace_id"] == root.trace_id
        # inner's parent is the span the outer block installed
        assert inner.args["parent_id"] == inner_ctx.span_id
        assert inner_ctx.span_id == outer.args["span_id"]

    def test_unstamped_without_context(self):
        tracer = RecordingTracer(clock=FakeClock())
        with tracer.span("read", "r"):
            pass
        tracer.instant("slot", "s")
        for e in tracer.events:
            assert "trace_id" not in e.args

    def test_for_trace_filters(self):
        tracer = RecordingTracer(clock=FakeClock())
        a, b = new_span_context(), new_span_context()
        with use_span(a):
            tracer.instant("slot", "in-a")
        with use_span(b):
            tracer.instant("slot", "in-b")
        tracer.instant("slot", "outside")
        for span, name in ((a, "in-a"), (b, "in-b")):
            stamped = [e.name for e in tracer.events
                       if e.args.get("trace_id") == span.trace_id]
            assert stamped == [name]
