"""Typed repair-journal records and the :class:`RepairState` replayer.

The journal is a *progress log*, not a second copy of the data: the rebuilt
chunk is already written atomically to its spare, so a stripe's record only
has to say where. Record types, in the order a healthy run emits them:

``begin``
    Once per journal: algorithm, serialized :class:`RepairPlan`, stripe
    list, survivor set, failed disks, and a server-config fingerprint so
    ``--resume`` can refuse a mismatched server.
``phase``
    Multi-disk replan boundary (timing-plane metadata only).
``stripe_done``
    A stripe reached a terminal outcome: the outcome, the logical clock and
    the ``(shard, spare)`` placement of every rebuilt chunk. On a
    persistent store (:attr:`~repro.hdss.store.ChunkStore.persistent`) that
    is all — the record *names* the chunk; on a volatile one it also
    carries the payloads, so replay can re-put what died with the process.
``resume``
    Appended each time a resumed run takes over; counting these tells the
    fault injector how many scripted ``process_crash`` events already
    fired.
``complete``
    The repair finished; a resume of a complete journal is a no-op.

``begin``, ``phase``, ``resume`` and ``complete`` are one ``append`` + one
fsync'd ``commit``. ``stripe_done`` is appended and flushed to the OS, not
fsync'd: it is a hint whose loss costs one stripe's re-read and an identical
re-put, never a byte (``docs/robustness.md`` has the argument), and
``complete``'s fsync makes every record before it durable. Either way the
journal ends on a record boundary or a torn tail the WAL reader clips off.

:func:`load_state` parses only what a resume reads: ``begin``,
``stripe_done``, ``resume`` and ``complete``. ``phase`` is written as audit
metadata and not replayed. ``round_commit`` (one repair round of one
stripe, which no driver writes any more but a v1 journal may hold) is
tolerated and not replayed either — its clock still counts — so a stripe
without a ``stripe_done`` restarts from its plan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import JournalError
from repro.journal.wal import WALReader, WALRecord, WALWriter, list_segments

#: Journal-format version; bump on incompatible record-schema changes.
FORMAT_VERSION = 1

#: Counter: records appended to the repair journal, labelled by type.
JOURNAL_RECORDS = "hdpsr_journal_records_total"
#: Counter: fsync'd journal commits (a flushed ``stripe_done`` is not one).
JOURNAL_COMMITS = "hdpsr_journal_commits_total"
#: Counter: bytes appended to the repair journal.
JOURNAL_BYTES = "hdpsr_journal_bytes_total"


def _counter(name: str, help_text: str):
    from repro.obs.context import current_registry

    return current_registry().counter(name, help_text)


def _instant(name: str, **args) -> None:
    from repro.obs.context import current_tracer

    current_tracer().instant("journal", name, **args)


@dataclass
class StripeDone:
    """Terminal outcome of one stripe as read back from the journal."""

    outcome: str
    clock: float
    #: ``(target_shard, spare_disk, payload)``; the payload is None when
    #: the record only names the chunk (written over a persistent store).
    writebacks: List[Tuple[int, int, Optional[np.ndarray]]] = field(
        default_factory=list
    )


@dataclass
class RepairState:
    """Everything a resumed run needs, replayed from the journal."""

    algorithm: str
    plan: Dict[str, object]
    stripe_indices: List[int]
    #: Survivor shard ids per stripe row (column order of the plan).
    survivor_ids: List[List[int]]
    failed_disks: List[int]
    fingerprint: Dict[str, object]
    clock: float = 0.0
    resume_count: int = 0
    completed: bool = False
    #: stripe global index -> terminal outcome (payloads where carried).
    done: Dict[int, StripeDone] = field(default_factory=dict)


class RepairJournal:
    """Write-side API: one instance journals one repair run.

    Every method appends exactly one record; all but :meth:`stripe_done`
    commit (fsync) it, which also makes every earlier record durable. A
    crash leaves a consistent prefix of the records, never a half-written
    one.
    """

    def __init__(
        self, root: "str | os.PathLike", *, durable: bool = True
    ) -> None:
        self.root = Path(root)
        self._writer = WALWriter(self.root, durable=durable)

    # ------------------------------------------------------------- low level
    def _emit(self, record: WALRecord, *, fsync: bool = True) -> None:
        frame_bytes = self._writer.append(record)
        if fsync:
            self._writer.commit()
            _counter(JOURNAL_COMMITS, "fsync'd journal commits").inc()
        else:
            self._writer.flush()
        _counter(
            JOURNAL_RECORDS, "Records appended to the repair journal"
        ).labels(type=record.type).inc()
        _counter(
            JOURNAL_BYTES, "Bytes appended to the repair journal"
        ).inc(frame_bytes)
        _instant(f"journal.{record.type}", **{
            k: v for k, v in record.meta.items()
            if isinstance(v, (int, float, str, bool))
        })

    # --------------------------------------------------------------- records
    def begin(
        self,
        *,
        algorithm: str,
        plan: Mapping[str, object],
        stripe_indices: Sequence[int],
        survivor_ids: Sequence[Sequence[int]],
        failed_disks: Sequence[int],
        fingerprint: Mapping[str, object],
    ) -> None:
        self._emit(
            WALRecord(
                type="begin",
                meta={
                    "version": FORMAT_VERSION,
                    "algorithm": algorithm,
                    "plan": dict(plan),
                    "stripe_indices": [int(s) for s in stripe_indices],
                    "survivor_ids": [[int(s) for s in row] for row in survivor_ids],
                    "failed_disks": [int(d) for d in failed_disks],
                    "fingerprint": dict(fingerprint),
                },
            )
        )

    def mark_resume(self, clock: float) -> None:
        self._emit(WALRecord(type="resume", meta={"clock": float(clock)}))

    def phase(self, **meta: object) -> None:
        self._emit(WALRecord(type="phase", meta=dict(meta)))

    def round_commit(
        self,
        stripe: int,
        clock: float,
        decoder_state: Mapping[str, object],
        outcome: str = "recovered",
    ) -> None:
        """v1 compatibility, write side only: no driver journals rounds and
        :func:`load_state` skips these records. Kept because the
        benchmark's ``journal.round_commit_ms`` row and its trace hook bind
        it by name; it goes when those do."""
        state = dict(decoder_state)
        acc: Mapping[str, np.ndarray] = state.pop("acc")  # type: ignore[assignment]
        blobs = {
            f"acc:{target}": np.ascontiguousarray(arr, dtype=np.uint8).tobytes()
            for target, arr in acc.items()
        }
        self._emit(
            WALRecord(
                type="round_commit",
                meta={
                    "stripe": int(stripe),
                    "clock": float(clock),
                    "outcome": str(outcome),
                    "decoder": state,
                },
                blobs=blobs,
            )
        )

    def stripe_done(
        self,
        stripe: int,
        outcome: str,
        clock: float,
        writebacks: Sequence[Tuple[int, int, Optional[np.ndarray]]] = (),
    ) -> None:
        """Flushed, not fsync'd. ``writebacks`` are what
        :meth:`RepairJob.record_writebacks` built: a ``None`` payload names
        the chunk on its spare instead of carrying it."""
        meta_wb = []
        blobs: Dict[str, bytes] = {}
        for target, spare, payload in writebacks:
            meta_wb.append({"shard": int(target), "spare": int(spare)})
            if payload is not None:
                blobs[f"payload:{int(target)}"] = np.ascontiguousarray(
                    payload, dtype=np.uint8
                ).tobytes()
        self._emit(
            WALRecord(
                type="stripe_done",
                meta={
                    "stripe": int(stripe),
                    "outcome": str(outcome),
                    "clock": float(clock),
                    "writebacks": meta_wb,
                },
                blobs=blobs,
            ),
            fsync=False,
        )

    def complete(self, **summary: object) -> None:
        self._emit(WALRecord(type="complete", meta=dict(summary)))

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "RepairJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def journal_exists(root: "str | os.PathLike") -> bool:
    """True when ``root`` holds at least one journal segment."""
    path = Path(root)
    return path.is_dir() and bool(list_segments(path))


def load_state(root: "str | os.PathLike") -> RepairState:
    """Replay the journal at ``root`` into a :class:`RepairState`.

    Raises :class:`JournalError` when the directory holds no intact
    ``begin`` record (nothing to resume from).
    """
    state: Optional[RepairState] = None
    for record in WALReader(root):
        meta = record.meta
        if record.type == "begin":
            if state is not None:
                raise JournalError(
                    f"journal {root} holds more than one 'begin' record"
                )
            state = RepairState(
                algorithm=str(meta["algorithm"]),
                plan=dict(meta["plan"]),  # type: ignore[arg-type]
                stripe_indices=[int(s) for s in meta["stripe_indices"]],  # type: ignore[union-attr]
                survivor_ids=[[int(s) for s in row] for row in meta["survivor_ids"]],  # type: ignore[union-attr]
                failed_disks=[int(d) for d in meta["failed_disks"]],  # type: ignore[union-attr]
                fingerprint=dict(meta["fingerprint"]),  # type: ignore[arg-type]
            )
            continue
        if state is None:
            raise JournalError(f"journal {root} does not start with 'begin'")
        clock = meta.get("clock")
        if isinstance(clock, (int, float)):
            state.clock = max(state.clock, float(clock))
        if record.type == "resume":
            state.resume_count += 1
        elif record.type == "stripe_done":
            stripe = int(meta["stripe"])  # type: ignore[arg-type]
            writebacks: List[Tuple[int, int, Optional[np.ndarray]]] = []
            for wb in meta.get("writebacks", []):  # type: ignore[union-attr]
                shard, spare = int(wb["shard"]), int(wb["spare"])
                blob = record.blobs.get(f"payload:{shard}")
                payload = (
                    np.frombuffer(blob, dtype=np.uint8).copy()
                    if blob is not None
                    else None
                )
                writebacks.append((shard, spare, payload))
            state.done[stripe] = StripeDone(
                outcome=str(meta["outcome"]),
                clock=float(meta["clock"]),  # type: ignore[arg-type]
                writebacks=writebacks,
            )
        elif record.type == "complete":
            state.completed = True
    if state is None:
        raise JournalError(f"no resumable journal found at {root}")
    return state
