"""``repro.obs`` — observability for the repair stack.

Structured tracing (:mod:`~repro.obs.tracer`), a process-wide metrics
registry (:mod:`~repro.obs.metrics`), exporters for Chrome
``trace_event`` / JSONL / Prometheus text (:mod:`~repro.obs.exporters`),
profiling hooks (:mod:`~repro.obs.profiling`), and context threading so
instrumented call sites stay parameter-free (:mod:`~repro.obs.context`).

Typical capture:

    from repro.obs import RecordingTracer, use_tracer, write_chrome_trace

    tracer = RecordingTracer()
    with use_tracer(tracer):
        repair_single_disk(server, ActivePreliminaryRepair(), 0)
    write_chrome_trace(tracer, "repair-trace.json")   # chrome://tracing

Everything defaults off: the ambient tracer is :data:`NULL_TRACER` and
instrumented hot loops guard on ``tracer.enabled``, so the disabled cost
is one attribute read per round.
"""

from repro.obs.analysis import (
    analyze_trace,
    diff_metrics,
    load_run_metrics,
    summarize_trace,
)
from repro.obs.context import (
    current_registry,
    current_tracer,
    use_registry,
    use_tracer,
)
from repro.obs.exporters import (
    parse_prometheus_text,
    prometheus_text,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import EventLoopMonitor
from repro.obs.tracer import RecordingTracer

__all__ = [
    "RecordingTracer",
    "EventLoopMonitor",
    "MetricsRegistry",
    "write_chrome_trace",
    "read_jsonl",
    "write_jsonl",
    "prometheus_text",
    "write_prometheus",
    "parse_prometheus_text",
    "analyze_trace",
    "summarize_trace",
    "diff_metrics",
    "load_run_metrics",
    "current_tracer",
    "current_registry",
    "use_tracer",
    "use_registry",
]
