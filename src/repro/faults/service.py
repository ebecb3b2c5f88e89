"""Wire-level fault injection for the repair daemon (the chaos plane).

:class:`ServiceFaultInjector` interprets the connection-level kinds of
:data:`repro.faults.spec.SERVICE_FAULT_KINDS` for one daemon. Where the
data-path :class:`~repro.faults.injector.FaultInjector` advances on the
*modeled clock*, the wire injector advances on the daemon's **request
ordinal** — the 0-based count of requests it has dispatched — because
wall-clock request arrival is scheduler noise while the request sequence
is reproducible run after run.

The injector does not touch sockets itself; the daemon asks it *what to
do* to the request it is about to serve and applies the verdict:

* ``reset``   — abort the connection (RST) instead of answering;
* ``partial`` — write a torn prefix of the response, then hang up;
* ``delay``   — sleep ``delay_seconds`` before answering (slow peer);
* ``skew``    — step the cluster lease clock by ``skew_seconds``;
* ``corruptions`` — chunk-corruption events (``bitrot``/``torn_write``/
  ``misdirected_write``) to apply to the store *before* serving the
  request, via :func:`apply_corruption`.

``daemon_crash`` events are *not* handled here: they fire on the modeled
clock exactly like ``process_crash`` (see
:meth:`repro.faults.spec.FaultSchedule.for_daemon`), so a crash lands
mid-repair deterministically even when no request is in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError
from repro.faults.spec import (
    CORRUPTION_FAULT_KINDS,
    SERVICE_FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
)
from repro.obs.context import current_registry


@dataclass
class WireVerdict:
    """What the daemon should do to the request it is about to serve."""

    #: Abort the connection without answering (``conn_reset``).
    reset: bool = False
    #: Answer with a torn frame, then hang up (``partial_frame``).
    partial: bool = False
    #: Seconds to sleep before answering (``slow_peer`` windows).
    delay_seconds: float = 0.0
    #: Lease-clock step to apply right now (``clock_skew``).
    skew_seconds: float = 0.0
    #: Chunk-corruption events to apply to the store before serving
    #: (``bitrot``/``torn_write``/``misdirected_write``).
    corruptions: List[FaultEvent] = field(default_factory=list)
    #: Events that fired on this request (for tracing/reporting).
    fired: List[FaultEvent] = field(default_factory=list)

    @property
    def disruptive(self) -> bool:
        return self.reset or self.partial


class ServiceFaultInjector:
    """Request-ordinal interpreter of one daemon's wire-fault schedule.

    Args:
        schedule: the *wire* half of :meth:`FaultSchedule.for_daemon`
            (events whose kind is connection-level; events of other kinds
            are ignored).
        daemon: this daemon's index, for reporting only — the schedule is
            assumed to be pre-filtered.
    """

    def __init__(self, schedule: FaultSchedule, daemon: int = 0) -> None:
        self.daemon = daemon
        self.requests_seen = 0
        #: Events applied so far, by kind.
        self.applied: dict = {}
        self._oneshots: List[FaultEvent] = sorted(
            (
                e
                for e in schedule
                if e.kind in ("conn_reset", "partial_frame", "clock_skew")
                + CORRUPTION_FAULT_KINDS
            ),
            key=lambda e: e.at,
        )
        self._slow: List[FaultEvent] = [
            e for e in schedule if e.kind == "slow_peer"
        ]

    @property
    def exhausted(self) -> bool:
        """True once no event can fire on any future request."""
        if self._oneshots:
            return False
        horizon = self.requests_seen
        return all(e.at + max(1.0, e.factor) <= horizon for e in self._slow)

    def _count(self, event: FaultEvent) -> None:
        self.applied[event.kind] = self.applied.get(event.kind, 0) + 1
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "hdpsr_faults_injected_total",
                "Fault events applied to the server.",
            ).labels(kind=event.kind).inc()

    def on_request(self) -> WireVerdict:
        """Advance one request ordinal; return the verdict for it."""
        ordinal = self.requests_seen
        self.requests_seen += 1
        verdict = WireVerdict()
        keep: List[FaultEvent] = []
        for e in self._oneshots:
            if e.at > ordinal:
                keep.append(e)
                continue
            if e.kind == "conn_reset":
                verdict.reset = True
            elif e.kind == "partial_frame":
                verdict.partial = True
            elif e.kind in CORRUPTION_FAULT_KINDS:
                verdict.corruptions.append(e)
            else:  # clock_skew
                verdict.skew_seconds += e.factor
            verdict.fired.append(e)
            self._count(e)
        self._oneshots = keep
        for e in self._slow:
            # ``at`` opens a window of ``factor`` consecutive requests,
            # each delayed by ``duration`` seconds.
            width = max(1.0, e.factor)
            if e.at <= ordinal < e.at + width:
                verdict.delay_seconds += e.duration or 0.0
                verdict.fired.append(e)
                self._count(e)
        return verdict


def apply_corruption(store, event: FaultEvent):
    """Mutate the victim chunk's stored bytes per ``event.kind``.

    Writes *beneath* the store's checksum layer — straight into the chunk
    file, whose digest goes stale — which is the whole point: the
    corruption is silent until a verify (foreground read or scrub)
    touches it. Needs a file-backed store (:class:`FileChunkStore` or a
    :class:`ShardedChunkStore` over them); sharded stores are descended
    through ``shard_for``. Returns the mutated chunk's path.

    * ``bitrot`` flips three bytes of the file in place (first, middle,
      last — the last one in the digest of a one-file chunk);
    * ``torn_write`` truncates the file to its first half (min 1 byte),
      cutting off the trailer;
    * ``misdirected_write`` overwrites the file with another chunk's whole
      file from the same disk (the first donor whose bytes differ) —
      trailer and all, self-consistent: only the identity its trailer
      names, checked on read, catches it — falling back to a byte flip
      when the disk holds no other chunk.
    """
    if event.kind not in CORRUPTION_FAULT_KINDS:
        raise ConfigurationError(
            f"apply_corruption got a {event.kind!r} event; expected one of "
            f"{CORRUPTION_FAULT_KINDS}"
        )
    from repro.ec.stripe import ChunkId
    from repro.errors import ChunkNotFoundError

    chunk_id = ChunkId(int(event.stripe), int(event.shard))
    backend = (
        store.shard_for(event.disk) if hasattr(store, "shard_for") else store
    )
    chunk_path = getattr(backend, "_chunk_path", None)
    if chunk_path is None:
        raise ConfigurationError(
            f"corruption faults need a file-backed chunk store, got "
            f"{type(backend).__name__}"
        )
    path = chunk_path(event.disk, chunk_id)
    if not path.exists():
        raise ChunkNotFoundError(
            f"cannot corrupt chunk {chunk_id}: not on disk {event.disk}"
        )

    def _flip(payload: bytes) -> bytes:
        mutated = bytearray(payload)
        for off in {0, len(mutated) // 2, len(mutated) - 1}:
            mutated[off] ^= 0xFF
        return bytes(mutated)

    payload = path.read_bytes()
    if event.kind == "bitrot":
        mutated = _flip(payload) if payload else b"\xff"
    elif event.kind == "torn_write":
        mutated = payload[: max(1, len(payload) // 2)]
    else:  # misdirected_write
        mutated = None
        for donor in sorted(backend.chunks_on_disk(event.disk)):
            if donor == chunk_id:
                continue
            donor_payload = chunk_path(event.disk, donor).read_bytes()
            if donor_payload != payload:
                mutated = donor_payload
                break
        if mutated is None:
            mutated = _flip(payload) if payload else b"\xff"
    path.write_bytes(mutated)
    return path


def is_service_schedule(schedule: FaultSchedule) -> bool:
    """True when the schedule holds at least one service-plane event."""
    return any(e.kind in SERVICE_FAULT_KINDS for e in schedule)
