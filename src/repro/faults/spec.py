"""Fault schedules: what goes wrong, where, and when.

A schedule is deliberately dumb data — a sorted tuple of events with a JSON
round-trip — so one spec file drives the data path's
:class:`~repro.faults.injector.FaultInjector` (or, for the service-plane
kinds, a daemon's :class:`~repro.faults.service.ServiceFaultInjector`), and
a seed reproduces the identical failure story run after run.

Event kinds:

* ``disk_fail`` — the disk dies permanently at ``at``; its chunks are gone.
* ``sector_error`` — one chunk (``stripe``/``shard``) on ``disk`` becomes
  unreadable (a latent sector error / URE); the rest of the disk is fine.
* ``slow`` — bandwidth collapses by ``factor`` for ``duration`` seconds
  (transient contention, background scrub, vibration).
* ``hang`` — the disk stops answering for ``duration`` seconds (firmware
  stall); modeled as a near-total bandwidth collapse so per-read timeouts
  and hedging are what save the repair.
* ``process_crash`` — the *repair process itself* dies at ``at`` (a
  SIGKILL / power cut), raised as :class:`repro.faults.SimulatedCrash`.
  Only meaningful with a ``--journal``; a resumed run skips crashes that
  already fired. ``disk`` is ignored (defaults to 0).

Service-plane kinds (see :mod:`repro.faults.service`) target a *daemon*
of a repair cluster rather than a disk; ``daemon`` selects which one:

* ``daemon_crash`` — one daemon of a cluster dies at modeled time ``at``
  (``process_crash`` scoped to ``daemon``); peers must claim its shards.
* ``conn_reset`` — the daemon aborts (RST) the connection serving its
  ``at``-th request (0-based request ordinal, not seconds).
* ``slow_peer`` — requests from ordinal ``at`` onwards are delayed by
  ``duration`` wall seconds each, for ``factor`` consecutive requests.
* ``partial_frame`` — the daemon writes a truncated response frame for
  its ``at``-th request, then hangs up (torn write on the wire).
* ``clock_skew`` — the daemon's lease clock jumps by ``factor`` seconds
  (positive or negative) at request ordinal ``at``; exercises lease
  expiry and epoch fencing under clock trouble.

Silent-corruption kinds (also service-plane; ``at`` is a request
ordinal, ``stripe``/``shard`` name the victim chunk on ``disk``). They
mutate stored bytes *beneath* the checksum layer — the digest goes stale
on purpose — so only a verify (foreground read or the scrub plane) can
catch them:

* ``bitrot`` — a few bytes flip in place (media decay, cosmic ray);
  length unchanged, digest stale.
* ``torn_write`` — the file is truncated to a prefix (power cut mid-write
  on a non-atomic path); its trailer is gone.
* ``misdirected_write`` — another chunk's file lands at this chunk's path
  (firmware addressing bug); the bytes are internally healthy but belong
  to the wrong chunk, so only the identity in its trailer exposes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.utils.rng import RngLike, make_rng

#: Supported event kinds, in spec order.
FAULT_KINDS = ("disk_fail", "sector_error", "slow", "hang", "process_crash")

#: Service-plane kinds targeting one daemon of a repair cluster. For the
#: connection-level kinds (everything but ``daemon_crash``) ``at`` is a
#: 0-based *request ordinal* on that daemon, which keeps injection
#: deterministic regardless of wall-clock scheduling.
#: Silent-corruption kinds: mutate one stored chunk's bytes beneath the
#: checksum layer, leaving the chunk's digest stale. ``at`` is a request
#: ordinal (fired through the wire injector); ``stripe``/``shard``/``disk``
#: name the victim chunk.
CORRUPTION_FAULT_KINDS = ("bitrot", "torn_write", "misdirected_write")

SERVICE_FAULT_KINDS = (
    "daemon_crash", "conn_reset", "slow_peer", "partial_frame", "clock_skew",
) + CORRUPTION_FAULT_KINDS

#: Kinds the random generator draws from — ``process_crash`` is opt-in
#: (it only makes sense alongside a journal, so scripted specs add it
#: explicitly; random scenarios should not kill their own process).
GENERATED_KINDS = ("disk_fail", "sector_error", "slow", "hang")

#: Bandwidth-collapse factor used to model a hung disk.
HANG_FACTOR = 1e9


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        at: logical-clock time in seconds at which the fault strikes.
        kind: one of :data:`FAULT_KINDS`.
        disk: the disk the fault targets.
        stripe, shard: chunk coordinates, required for ``sector_error``.
        factor: bandwidth-collapse factor for ``slow`` (>= 1); request
            count for ``slow_peer``; skew seconds for ``clock_skew``.
        duration: window length for ``slow``/``hang``; ``None`` means the
            degradation persists for the rest of the run. Per-request
            delay for ``slow_peer``.
        daemon: target daemon index for service-plane kinds.
    """

    at: float
    kind: str
    disk: int = 0
    stripe: Optional[int] = None
    shard: Optional[int] = None
    factor: float = 4.0
    duration: Optional[float] = None
    daemon: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS + SERVICE_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS + SERVICE_FAULT_KINDS}"
            )
        if self.daemon < 0:
            raise ConfigurationError(
                f"fault daemon must be >= 0, got {self.daemon}"
            )
        if self.at < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.at}")
        if self.disk < 0:
            raise ConfigurationError(f"fault disk must be >= 0, got {self.disk}")
        if self.kind in ("sector_error",) + CORRUPTION_FAULT_KINDS and (
            self.stripe is None or self.shard is None
        ):
            raise ConfigurationError(
                f"{self.kind} events need explicit stripe and shard coordinates"
            )
        if self.kind == "slow" and self.factor < 1.0:
            raise ConfigurationError(
                f"slow factor must be >= 1 (a degradation), got {self.factor}"
            )
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError(
                f"fault duration must be > 0 when given, got {self.duration}"
            )

    @property
    def window_end(self) -> float:
        """End of a transient window (``inf`` for permanent events)."""
        if self.duration is None:
            return float("inf")
        return self.at + self.duration

    @property
    def effective_factor(self) -> float:
        """Bandwidth-collapse factor (hangs use :data:`HANG_FACTOR`)."""
        return HANG_FACTOR if self.kind == "hang" else self.factor

    def to_spec(self) -> Dict[str, object]:
        spec: Dict[str, object] = {"at": self.at, "kind": self.kind}
        if self.kind in SERVICE_FAULT_KINDS:
            spec["daemon"] = self.daemon
            # Corruption kinds address a chunk, so the victim disk matters
            # even though the event is daemon-scoped.
            if self.kind in CORRUPTION_FAULT_KINDS:
                spec["disk"] = self.disk
        else:
            spec["disk"] = self.disk
        if self.stripe is not None:
            spec["stripe"] = self.stripe
        if self.shard is not None:
            spec["shard"] = self.shard
        if self.kind in ("slow", "slow_peer", "clock_skew"):
            spec["factor"] = self.factor
        if self.duration is not None:
            spec["duration"] = self.duration
        return spec

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "FaultEvent":
        known = {"at", "kind", "disk", "stripe", "shard", "factor", "duration", "daemon"}
        extra = set(spec) - known
        if extra:
            raise ConfigurationError(f"unknown fault-event keys: {sorted(extra)}")
        kind = str(spec.get("kind", ""))
        try:
            return cls(
                at=float(spec["at"]),
                kind=kind,
                # process_crash and the service-plane kinds target the
                # repair process / a daemon, not a disk.
                disk=int(spec.get("disk", 0))
                if kind == "process_crash" or kind in SERVICE_FAULT_KINDS
                else int(spec["disk"]),
                stripe=None if spec.get("stripe") is None else int(spec["stripe"]),
                shard=None if spec.get("shard") is None else int(spec["shard"]),
                factor=float(spec.get("factor", 4.0)),
                duration=None if spec.get("duration") is None else float(spec["duration"]),
                daemon=int(spec.get("daemon", 0)),
            )
        except KeyError as exc:
            raise ConfigurationError(f"fault event missing key {exc.args[0]!r}") from None


class FaultSchedule:
    """An immutable, time-sorted sequence of :class:`FaultEvent`."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at, e.kind, e.disk))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    def for_kind(self, kind: str) -> List[FaultEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_daemon(self, daemon: int) -> "Tuple[FaultSchedule, FaultSchedule]":
        """Split a cluster schedule into one daemon's two injection planes.

        Returns ``(local, wire)``: *local* holds the generic disk/process
        kinds every daemon's data-path injector interprets, with
        ``daemon_crash`` events addressed to this daemon rewritten as
        ``process_crash`` (same modeled-clock semantics, so one spec file
        can kill daemon 2 of a fleet mid-repair); *wire* holds the
        connection-level kinds (``conn_reset``/``slow_peer``/
        ``partial_frame``/``clock_skew``) addressed to this daemon, for a
        :class:`repro.faults.service.ServiceFaultInjector`.
        """
        local: List[FaultEvent] = []
        wire: List[FaultEvent] = []
        for e in self.events:
            if e.kind in FAULT_KINDS:
                local.append(e)
            elif e.daemon != daemon:
                continue
            elif e.kind == "daemon_crash":
                local.append(FaultEvent(at=e.at, kind="process_crash"))
            else:
                wire.append(e)
        return FaultSchedule(local), FaultSchedule(wire)

    # ------------------------------------------------------------------ spec
    def to_spec(self) -> Dict[str, object]:
        return {"events": [e.to_spec() for e in self.events]}

    @classmethod
    def from_spec(cls, spec: "Dict[str, object] | Sequence[Dict[str, object]]") -> "FaultSchedule":
        """Parse a schedule from a dict (``{"events": [...]}``) or bare list."""
        if isinstance(spec, dict):
            events = spec.get("events", [])
        else:
            events = spec
        if not isinstance(events, (list, tuple)):
            raise ConfigurationError("fault spec 'events' must be a list")
        return cls([FaultEvent.from_spec(e) for e in events])

    @classmethod
    def from_json(cls, path: "str | Path") -> "FaultSchedule":
        p = Path(path)
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"fault spec {p} is not valid JSON: {exc}") from None
        return cls.from_spec(data)

    def to_json(self, path: "str | Path") -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(self.to_spec(), indent=2, sort_keys=True) + "\n")
        return p

    def __repr__(self) -> str:
        kinds = {k: len(self.for_kind(k)) for k in FAULT_KINDS if self.for_kind(k)}
        return f"FaultSchedule({len(self.events)} events, {kinds})"


def generate_fault_schedule(
    seed: RngLike = 0,
    num_events: int = 4,
    horizon: float = 10.0,
    num_disks: int = 36,
    num_stripes: int = 0,
    num_shards: int = 9,
    kinds: Sequence[str] = GENERATED_KINDS,
    max_disk_fails: int = 1,
    slow_factor_range: Tuple[float, float] = (2.0, 16.0),
    duration_range: Tuple[float, float] = (0.5, 4.0),
) -> FaultSchedule:
    """Draw a reproducible random schedule (the ``hdpsr faults`` generator).

    Args:
        seed: RNG seed — identical seeds give identical schedules.
        num_events: how many events to draw.
        horizon: events land uniformly in ``[0, horizon)`` seconds.
        num_disks: disk-id range to target.
        num_stripes: stripe-id range for sector errors; when 0,
            ``sector_error`` is dropped from the kind pool.
        num_shards: shard-id range for sector errors (the code's ``n``).
        kinds: allowed event kinds.
        max_disk_fails: cap on permanent failures (keep the scenario inside
            the code's tolerance; extra draws fall back to ``slow``).
    """
    if num_events < 0:
        raise ConfigurationError(f"num_events must be >= 0, got {num_events}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    pool = [k for k in kinds if k in GENERATED_KINDS]
    if not pool:
        raise ConfigurationError(f"no valid kinds in {list(kinds)!r}")
    if num_stripes <= 0:
        pool = [k for k in pool if k != "sector_error"] or ["slow"]
    rng = make_rng(seed)
    events: List[FaultEvent] = []
    fails = 0
    for _ in range(num_events):
        at = float(rng.uniform(0.0, horizon))
        kind = pool[int(rng.integers(0, len(pool)))]
        if kind == "disk_fail" and fails >= max_disk_fails:
            kind = "hang" if "hang" in pool and "slow" not in pool else "slow"
        disk = int(rng.integers(0, num_disks))
        if kind == "disk_fail":
            fails += 1
            events.append(FaultEvent(at=at, kind="disk_fail", disk=disk))
        elif kind == "sector_error":
            events.append(FaultEvent(
                at=at, kind="sector_error", disk=disk,
                stripe=int(rng.integers(0, num_stripes)),
                shard=int(rng.integers(0, num_shards)),
            ))
        else:
            lo, hi = slow_factor_range
            dlo, dhi = duration_range
            # Hangs ignore ``factor`` (HANG_FACTOR applies); draw it only
            # for slow events so spec round-trips stay exact.
            factor = float(rng.uniform(lo, hi)) if kind == "slow" else 4.0
            events.append(FaultEvent(
                at=at, kind=kind, disk=disk,
                factor=factor,
                duration=float(rng.uniform(dlo, dhi)),
            ))
    return FaultSchedule(events)
