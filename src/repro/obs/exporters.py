"""Trace and metrics exporters.

Three formats:

* **JSONL** — one :class:`~repro.obs.tracer.TraceEvent` dict per line;
  lossless, trivially greppable/parsable.
* **Chrome ``trace_event``** — the JSON Array Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev. Spans become ``"X"``
  (complete) events, instants ``"i"``; each clock domain (``sim`` /
  ``wall``) gets its own ``pid`` row with timestamps re-based to the
  domain's earliest event so simulated and wall timelines both start at 0
  instead of interleaving incompatible clocks.
* **Prometheus text exposition** — counters/gauges/histograms from a
  :class:`~repro.obs.metrics.MetricsRegistry`, with a matching parser so
  round-trips can be asserted (and scraped files re-read).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer, TraceEvent

TraceSource = Union[RecordingTracer, Sequence[TraceEvent]]

_MICROS = 1e6


def _events(trace: TraceSource) -> List[TraceEvent]:
    if isinstance(trace, RecordingTracer):
        return list(trace.events)
    return list(trace)


# --------------------------------------------------------------------------
# JSONL
# --------------------------------------------------------------------------


def events_to_jsonl(trace: TraceSource) -> str:
    """Serialise events, one JSON object per line (lossless)."""
    return "\n".join(json.dumps(e.to_dict(), sort_keys=True)
                     for e in _events(trace))


def write_jsonl(trace: TraceSource, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = events_to_jsonl(trace)
    path.write_text(text + ("\n" if text else ""))
    return path


def events_from_jsonl(text: str) -> List[TraceEvent]:
    """Parse JSONL trace text back into events (inverse of ``events_to_jsonl``)."""
    events: List[TraceEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not valid JSON ({exc})") from exc
        if not isinstance(d, dict) or "name" not in d or "ts" not in d:
            raise ValueError(f"line {lineno}: not a trace event record")
        events.append(TraceEvent(
            name=d["name"],
            category=d.get("cat", ""),
            ts=float(d["ts"]),
            duration=None if d.get("dur") is None else float(d["dur"]),
            track=d.get("track", "main"),
            domain=d.get("domain", "wall"),
            depth=int(d.get("depth", 0)),
            seq=int(d.get("seq", 0)),
            args=d.get("args", {}) or {},
        ))
    return events


def read_jsonl(path) -> List[TraceEvent]:
    """Load a ``write_jsonl`` trace file back into :class:`TraceEvent`\\ s."""
    return events_from_jsonl(Path(path).read_text())


# --------------------------------------------------------------------------
# Chrome trace_event
# --------------------------------------------------------------------------


def chrome_trace(trace: TraceSource) -> Dict:
    """Convert events to the Chrome ``trace_event`` JSON Object Format.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}``. Domains
    map to ``pid`` rows, tracks to ``tid`` rows; per-domain timestamps are
    shifted so each domain starts at t=0. Metadata events name both.
    """
    events = _events(trace)
    domains = sorted({e.domain for e in events})
    domain_pid = {d: i + 1 for i, d in enumerate(domains)}
    base = {
        d: min(e.ts for e in events if e.domain == d) for d in domains
    }
    tracks = sorted({(e.domain, e.track) for e in events})
    track_tid = {dt: i + 1 for i, dt in enumerate(tracks)}

    out: List[Dict] = []
    for domain in domains:
        out.append({
            "ph": "M", "name": "process_name", "pid": domain_pid[domain],
            "tid": 0, "args": {"name": f"{domain} clock"},
        })
    for (domain, track), tid in track_tid.items():
        out.append({
            "ph": "M", "name": "thread_name", "pid": domain_pid[domain],
            "tid": tid, "args": {"name": track},
        })
    for e in events:
        record = {
            "name": e.name,
            "cat": e.category,
            "pid": domain_pid[e.domain],
            "tid": track_tid[(e.domain, e.track)],
            "ts": (e.ts - base[e.domain]) * _MICROS,
            "args": dict(e.args, seq=e.seq),
        }
        if e.is_span:
            record["ph"] = "X"
            record["dur"] = e.duration * _MICROS
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        out.append(record)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: TraceSource, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(trace)))
    return path


#: Phases we emit; validation accepts the full duration-event family too.
_VALID_PHASES = {"X", "B", "E", "i", "I", "M", "C"}


def validate_chrome_trace(doc: Dict) -> List[str]:
    """Schema-check a Chrome trace document; returns a list of problems.

    An empty list means the document loads in ``chrome://tracing`` /
    Perfetto: a ``traceEvents`` array whose entries carry ``ph``/``name``/
    ``pid``/``tid``, numeric non-negative ``ts`` for timed phases, and a
    numeric non-negative ``dur`` for every complete (``"X"``) event.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array traceEvents"]
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
        if not isinstance(e.get("name"), str):
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                problems.append(f"{where}: missing integer {key}")
        if ph != "M":
            ts = e.get("ts")
            if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or not math.isfinite(dur) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    return problems


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for name, data in registry.snapshot().items():
        if data["help"]:
            lines.append(f"# HELP {name} {data['help']}")
        lines.append(f"# TYPE {name} {data['type']}")
        for series in data["series"]:
            labels = series["labels"]
            if data["type"] == "histogram":
                for edge, count in series["buckets"].items():
                    le = dict(labels, le=edge)
                    lines.append(f"{name}_bucket{_fmt_labels(le)} {count}")
                lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(series['sum'])}")
                lines.append(f"{name}_count{_fmt_labels(labels)} {series['count']}")
            else:
                lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(series['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(registry: MetricsRegistry, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(registry))
    return path


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text back into ``{(sample_name, labels): value}``.

    The inverse of :func:`prometheus_text` for the subset it emits —
    enough for round-trip tests and for re-reading scraped dumps.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, label_body = name_part.partition("{")
            label_body = label_body.rstrip("}")
            labels = []
            for item in filter(None, label_body.split(",")):
                k, _, v = item.partition("=")
                labels.append((k, v.strip('"')))
            key = (name, tuple(sorted(labels)))
        else:
            key = (name_part, ())
        value = math.inf if value_part == "+Inf" else float(value_part)
        out[key] = value
    return out


__all__ = [
    "events_to_jsonl",
    "events_from_jsonl",
    "read_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    "parse_prometheus_text",
]
