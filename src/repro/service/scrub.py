"""The online scrub plane: continuous verification of chunks at rest.

Silent corruption — bitrot, torn writes, misdirected writes — is invisible
until something *reads* the bytes, and the worst possible moment to find
it is mid-repair, when the corrupt chunk was supposed to be a survivor.
:class:`Scrubber` closes that window: a background task that continuously
walks every disk of the service's chunk store, re-reading each chunk
against the SHA-256 digest in its trailer (see
:class:`repro.hdss.store.FileChunkStore`), quarantining anything that fails and
handing it to :meth:`~repro.service.service.RepairService.repair_chunk`,
which runs the chunk's stripe through the repair job.

Three properties make it a polite tenant of a loaded daemon:

* **Crash-resumable cursor.** The scrub position is journaled through
  :mod:`repro.journal` WAL records (``scrub_cycle_begin`` /
  ``scrub_disk_done`` / ``scrub_cycle_done``). It is a progress log: each
  record is flushed as it is appended, and ``cycle_done`` is the cycle's
  one commit, fsync'd in a worker thread. A restarted daemon resumes the
  interrupted cycle at the first unfinished disk; if a power cut dropped
  the unsynced tail it re-verifies those disks — it never skips a disk
  without a whole ``disk_done``.

* **Overload-aware pacing.** Scrub is the cheapest work class of the
  brownout plane (:data:`~repro.service.overload.CLASS_SCRUB`): while the
  daemon is ``browned_out`` the inter-verify pause stretches by
  ``scrub_brownout_factor``; while ``shedding`` the scrubber parks
  entirely and polls for recovery. A cycle lists every disk it will walk
  in one worker call, then verifies a disk in *runs*: under one
  *background* gate slot, chunk after chunk until the next pause is due —
  one chunk when ``interval_ms > 0``, the whole disk when it is 0. A
  chunk the page cache holds is verified on the event loop
  (:meth:`~repro.hdss.store.ChunkStore.get_cached`), each verify ending
  its loop step; the first chunk that call cannot answer goes, with the
  rest of the run, to one worker call. A run also ends at the next chunk
  boundary once any read queues on that disk's gate, and at the first
  chunk that fails its verify, so a scrub read never holds a spindle a
  foreground or repair read waits on for longer than one verify, and
  quarantine and read-repair happen before the disk's next chunk is read.

* **Quarantine-and-repair.** A failed verify immediately quarantines the
  chunk (it will never be served, and never used as a decode survivor),
  then its stripe rebuilds it from k clean survivors, writes it back with
  a fresh digest, re-verifies the bytes on disk, and lifts the
  quarantine. Zero corrupt bytes ever cross the front door: detection by
  any path (scrub, foreground, degraded decode, repair read) happens
  *before* payload bytes escape the store.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.ec.stripe import ChunkId
from repro.errors import (
    ChunkChecksumError,
    ChunkNotFoundError,
    ConfigurationError,
)
from repro.journal.wal import WALReader, WALRecord, WALWriter, list_segments
from repro.obs.context import current_registry, current_tracer

__all__ = ["ScrubConfig", "Scrubber", "ScrubStatus"]

#: Counter: chunks verified by the scrub plane.
SCRUB_VERIFIED = "hdpsr_scrub_chunks_verified_total"
#: Counter: completed scrub cycles.
SCRUB_CYCLES = "hdpsr_scrub_cycles_total"

#: Cursor-journal record types.
REC_CYCLE_BEGIN = "scrub_cycle_begin"
REC_DISK_DONE = "scrub_disk_done"
REC_CYCLE_DONE = "scrub_cycle_done"


def _verified_counter():
    return current_registry().counter(
        SCRUB_VERIFIED, "chunks verified by the scrub plane"
    )


def _commit_cursor(writer: WALWriter) -> None:
    """A cycle's one cursor commit, run in a worker thread: fsync through
    its ``cycle_done``, then prune — everything a future replay needs (the
    close of this cycle) lives in the newest segment, so prior segments
    are pure history."""
    writer.commit()
    for seg in list_segments(writer.root)[:-1]:
        seg.unlink(missing_ok=True)


@dataclass(frozen=True)
class ScrubConfig:
    """Tuning knobs of one :class:`Scrubber`.

    Attributes:
        interval_ms: healthy-state pause between chunk verifies — the
            scrub rate knob (0 = as fast as the gate admits, a disk in one
            run). Stretched by the overload controller's
            ``scrub_brownout_factor`` while browned out.
        cycle_pause_s: idle pause between the end of one full cycle and
            the start of the next.
        park_poll_s: how often a parked (shedding) scrubber re-checks the
            overload state.
        journal_root: directory for the crash-resumable cursor WAL;
            ``None`` scrubs without a cursor (restart = fresh cycle).
        durable_journal: fsync cursor commits (tests turn this off).
        auto_repair: read-repair corrupt chunks as they are found; when
            False the scrubber only quarantines (detection-only mode).
    """

    interval_ms: float = 20.0
    cycle_pause_s: float = 0.5
    park_poll_s: float = 0.1
    journal_root: "str | Path | None" = None
    durable_journal: bool = True
    auto_repair: bool = True

    def __post_init__(self) -> None:
        if self.interval_ms < 0:
            raise ConfigurationError(
                f"interval_ms must be >= 0, got {self.interval_ms}"
            )
        if self.cycle_pause_s < 0:
            raise ConfigurationError(
                f"cycle_pause_s must be >= 0, got {self.cycle_pause_s}"
            )
        if self.park_poll_s <= 0:
            raise ConfigurationError(
                f"park_poll_s must be > 0, got {self.park_poll_s}"
            )


@dataclass
class ScrubStatus:
    """One JSON-safe snapshot of the scrubber (the ``scrub`` stats section)."""

    cycle: int
    cycles_completed: int
    running: bool
    parked: bool
    disks_total: int
    disks_done: int
    progress: float
    eta_seconds: Optional[float]
    chunks_verified: int
    cycle_chunks: int
    corrupt_found: int
    repaired: int
    repair_failures: int
    quarantined: int
    last_cycle_seconds: Optional[float]
    resumed_cycles: int
    interval_ms: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Scrubber:
    """Background verify-everything walker over one service's chunk store.

    Args:
        service: the :class:`~repro.service.service.RepairService` whose
            store (and quarantine/read-repair machinery) to scrub.
        config: pacing + journaling knobs.
    """

    def __init__(self, service, config: Optional[ScrubConfig] = None) -> None:
        self.service = service
        self.config = config or ScrubConfig()
        #: Cycle currently in progress (or next to start), 1-based.
        self.cycle = 1
        self.cycles_completed = 0
        #: Cycles this *process* resumed from a predecessor's cursor.
        self.resumed_cycles = 0
        self.chunks_verified = 0
        self.cycle_chunks = 0
        #: Corruptions found by the scrub walk itself (the service's
        #: ``corrupt_found`` also counts foreground/degraded detections).
        self.corrupt_found = 0
        self.repaired = 0
        self.repair_failures = 0
        self.last_cycle_seconds: Optional[float] = None
        self.parked = False
        self.current_disk: Optional[int] = None
        self._done_disks: Set[int] = set()
        #: This cycle's listing of the disks it has yet to walk, taken as
        #: the cycle starts: a chunk put after it waits for the next cycle.
        self._listing: Dict[int, List[ChunkId]] = {}
        self._begun = False
        self._cycle_started: Optional[float] = None
        self._task: Optional[asyncio.Task] = None
        self._writer: Optional[WALWriter] = None
        #: The latest cursor commit's worker call, which :meth:`stop`
        #: waits out before it closes the writer.
        self._committing: Optional[asyncio.Future] = None
        if self.config.journal_root is not None:
            root = Path(self.config.journal_root)
            self._replay_cursor(root)
            self._writer = WALWriter(root, durable=self.config.durable_journal)

    # ------------------------------------------------------------- the cursor
    def _replay_cursor(self, root: Path) -> None:
        """Rebuild the scrub position from the cursor WAL.

        The journal is a flat record stream: the *last* ``cycle_begin``
        opens the cycle of record; ``disk_done`` records for that cycle
        mark disks that need no rescan; a matching ``cycle_done`` closes
        it (next run starts the following cycle fresh).
        """
        if not root.exists():
            return
        open_cycle: Optional[int] = None
        done: Set[int] = set()
        completed = 0
        for record in WALReader(root):
            if record.type == REC_CYCLE_BEGIN:
                open_cycle = int(record.meta.get("cycle", 0))
                done = set()
            elif record.type == REC_DISK_DONE:
                if open_cycle is not None and int(record.meta.get("cycle", -1)) == open_cycle:
                    done.add(int(record.meta.get("disk", -1)))
            elif record.type == REC_CYCLE_DONE:
                # A close needs no matching begin: a resumed cycle's
                # ``cycle_begin`` may live in a segment pruning dropped.
                done_cycle = int(record.meta.get("cycle", 0))
                completed = max(completed, done_cycle)
                if open_cycle is not None and done_cycle >= open_cycle:
                    open_cycle = None
                    done = set()
        if open_cycle is not None:
            # Mid-cycle crash: resume this cycle, skipping finished disks.
            self.cycle = open_cycle
            self._done_disks = done
            self._begun = True
            if done:
                self.resumed_cycles += 1
        else:
            self.cycle = completed + 1

    def _append(self, rtype: str, **meta) -> None:
        """Append one record and hand it to the OS: it survives a kill."""
        if self._writer is not None:
            self._writer.append(WALRecord(type=rtype, meta=meta))
            self._writer.flush()

    async def _commit(self) -> None:
        """fsync the records appended so far and drop the older segments,
        in a worker thread. Shielded: a cancelled cycle lets its commit
        finish, and :meth:`stop` waits it out before it closes the
        writer."""
        if self._writer is None:
            return
        self._committing = asyncio.ensure_future(
            asyncio.to_thread(_commit_cursor, self._writer)
        )
        await asyncio.shield(self._committing)

    # -------------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    @property
    def cycle_open(self) -> bool:
        """Whether :attr:`cycle` has begun and not finished — after a
        restart, that the cursor journal left it to be resumed."""
        return self._begun

    def start(self) -> None:
        """Start the continuous scrub loop on the running event loop."""
        if self.running:
            return
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="scrubber"
        )

    async def stop(self) -> None:
        """Cancel the loop, wait it and its last cursor commit out, and
        close the cursor journal."""
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None
        if self._committing is not None:
            await asyncio.gather(self._committing, return_exceptions=True)
            self._committing = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    async def _run(self) -> None:
        while True:
            await self.run_cycle()
            if self.config.cycle_pause_s > 0:
                await asyncio.sleep(self.config.cycle_pause_s)

    async def wait_cycles(self, n: int, timeout: float = 60.0) -> bool:
        """Block until ``n`` cycles have completed; False on timeout."""
        deadline = time.monotonic() + timeout
        while self.cycles_completed < n:
            if time.monotonic() > deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    # -------------------------------------------------------------- one cycle
    async def run_cycle(self) -> int:
        """Scrub every disk once (resuming a journaled cycle if one is
        open); returns the number of chunks verified this cycle."""
        service = self.service
        if not self._begun:
            self._done_disks = set()
            self._append(REC_CYCLE_BEGIN, cycle=self.cycle)
            self._begun = True
        self._cycle_started = time.monotonic()
        self._inherited_disks = len(self._done_disks)
        self.cycle_chunks = 0
        disks = list(range(len(service.server.disks)))
        self._disks_total = len(disks)
        walk = [
            d for d in disks
            if d not in self._done_disks and not service.server.disk(d).is_failed
        ]
        self._listing = (
            await asyncio.to_thread(self._list_disks, walk) if walk else {}
        )
        for disk_id in disks:
            if disk_id in self._done_disks:
                continue  # certified by a previous incarnation's cursor
            self.current_disk = disk_id
            if not service.server.disk(disk_id).is_failed:
                await self._scrub_disk(disk_id)
            self._done_disks.add(disk_id)
            self._append(REC_DISK_DONE, cycle=self.cycle, disk=disk_id)
        elapsed = time.monotonic() - self._cycle_started
        self._append(
            REC_CYCLE_DONE,
            cycle=self.cycle, chunks=self.cycle_chunks,
            seconds=round(elapsed, 6),
        )
        await self._commit()
        self.last_cycle_seconds = elapsed
        self.cycles_completed += 1
        current_registry().counter(
            SCRUB_CYCLES, "completed scrub cycles"
        ).inc()
        current_tracer().instant(
            "scrub", f"cycle {self.cycle} done",
            chunks=self.cycle_chunks, seconds=elapsed,
        )
        verified = self.cycle_chunks
        self.cycle += 1
        self._begun = False
        self.current_disk = None
        return verified

    def _list_disks(self, disks: List[int]) -> Dict[int, List[ChunkId]]:
        """A cycle's one listing, in a worker thread: the chunks of each
        disk in ``disks``."""
        store = self.service.server.store
        return {disk_id: store.chunks_on_disk(disk_id) for disk_id in disks}

    async def _scrub_disk(self, disk_id: int) -> None:
        """Verify one disk run by run, each run under one background gate
        slot (see the module docstring for where a run ends). A disk the
        cycle's listing lacks is listed by its first run's worker call."""
        service = self.service
        chunks = self._listing.pop(disk_id, None)
        pos = 0
        while chunks is None or pos < len(chunks):
            await self._pace()
            async with service.gate.read(disk_id, foreground=False):
                chunks, pos, corrupt = await self._one_run(disk_id, chunks, pos)
            if corrupt is not None:
                await self._handle_corrupt(disk_id, corrupt)

    async def _one_run(
        self, disk_id: int, chunks: Optional[List[ChunkId]], pos: int
    ) -> Tuple[List[ChunkId], int, Optional[ChunkId]]:
        """One run, page cache first: each chunk of ``chunks[pos:]`` in
        turn is a ``store.get_cached`` on the event loop, and each that
        answers ends its loop step. The first chunk that call cannot
        answer (uncached, too big, missing, corrupt, a decorated store)
        goes, with the rest of the run, to one :meth:`_verify_run` worker
        call, whose ``verify_chunk`` raises, counts and reports; so does
        a whole run whose disk is not listed yet. Returns what
        :meth:`_verify_run` does."""
        service = self.service
        if chunks is not None:
            store = service.server.store
            one_chunk = self.config.interval_ms > 0
            counter = _verified_counter()
            while pos < len(chunks):
                cid = chunks[pos]
                if not service.is_quarantined(disk_id, cid):
                    if store.get_cached(disk_id, cid) is None:
                        break
                    self._count_verified(counter)
                pos += 1
                await asyncio.sleep(0)
                if one_chunk or service.gate.queue_depth(disk_id):
                    return chunks, pos, None
            if pos == len(chunks):
                return chunks, pos, None
        halt = threading.Event()
        try:
            return await asyncio.to_thread(
                self._verify_run, disk_id, chunks, pos, halt
            )
        finally:
            halt.set()  # a cancelled run stops at its next chunk

    def _verify_run(
        self,
        disk_id: int,
        chunks: Optional[List[ChunkId]],
        pos: int,
        halt: threading.Event,
    ) -> Tuple[List[ChunkId], int, Optional[ChunkId]]:
        """A run's worker call: verify ``chunks[pos:]`` in order (listing
        the disk first when ``chunks`` is None), one ``verify_chunk`` a
        chunk. Returns the list, the position the next run starts at, and
        the chunk that failed its verify, if one did."""
        service = self.service
        store = service.server.store
        if chunks is None:
            chunks = store.chunks_on_disk(disk_id)
        one_chunk = self.config.interval_ms > 0
        counter = _verified_counter()
        while pos < len(chunks):
            cid = chunks[pos]
            pos += 1
            # A quarantined chunk is already caught: its read-repair is pending.
            if not service.is_quarantined(disk_id, cid):
                try:
                    store.verify_chunk(disk_id, cid)
                except ChunkNotFoundError:
                    pass  # deleted/moved underneath us: not our problem
                except ChunkChecksumError:
                    self._count_verified(counter)
                    return chunks, pos, cid
                else:
                    self._count_verified(counter)
            if one_chunk or halt.is_set() or service.gate.queue_depth(disk_id):
                break
        return chunks, pos, None

    def _count_verified(self, counter) -> None:
        self.chunks_verified += 1
        self.cycle_chunks += 1
        counter.inc()

    async def _handle_corrupt(self, disk_id: int, cid) -> None:
        service = self.service
        newly = service.quarantine_chunk(
            disk_id, cid.stripe_index, cid.shard_index,
            source="scrub", auto_repair=False,
        )
        if newly:
            self.corrupt_found += 1
        if not self.config.auto_repair:
            return
        if await service.repair_chunk(cid.stripe_index, cid.shard_index):
            self.repaired += 1
        else:  # still quarantined: never served; a later job rebuilds it
            self.repair_failures += 1

    async def _pace(self) -> None:
        """Sleep the inter-verify pause, scaled (or parked) by brownout."""
        base = self.config.interval_ms / 1000.0
        while True:
            controller = self.service.overload
            throttle = (
                controller.scrub_throttle() if controller is not None else 1.0
            )
            if throttle is None:  # shedding: park until the daemon recovers
                self.parked = True
                await asyncio.sleep(self.config.park_poll_s)
                continue
            self.parked = False
            if base > 0:
                await asyncio.sleep(base * throttle)
            return

    # -------------------------------------------------------------- reporting
    _disks_total = 0
    #: Disks of this cycle a predecessor finished: they took none of the
    #: elapsed time the ETA extrapolates from.
    _inherited_disks = 0

    def _progress(self) -> float:
        total = self._disks_total or len(self.service.server.disks)
        if not total:
            return 0.0
        return min(1.0, len(self._done_disks) / total)

    def _eta_seconds(self) -> Optional[float]:
        if self._cycle_started is None or not self._begun:
            return None
        done = len(self._done_disks)
        ran = done - self._inherited_disks
        total = self._disks_total or len(self.service.server.disks)
        if not ran or done >= total:
            return None
        elapsed = time.monotonic() - self._cycle_started
        return elapsed / ran * (total - done)

    def status(self) -> ScrubStatus:
        """Live snapshot for the ``stats``/``scrub`` verbs and ``top`` — and
        what the telemetry plane derives the ``hdpsr_scrub_*`` gauges from."""
        return ScrubStatus(
            cycle=self.cycle,
            cycles_completed=self.cycles_completed,
            running=self.running,
            parked=self.parked,
            disks_total=self._disks_total or len(self.service.server.disks),
            disks_done=len(self._done_disks),
            progress=round(self._progress(), 4),
            eta_seconds=self._eta_seconds(),
            chunks_verified=self.chunks_verified,
            cycle_chunks=self.cycle_chunks,
            corrupt_found=self.corrupt_found,
            repaired=self.repaired,
            repair_failures=self.repair_failures,
            quarantined=len(self.service.quarantine),
            last_cycle_seconds=self.last_cycle_seconds,
            resumed_cycles=self.resumed_cycles,
            interval_ms=self.config.interval_ms,
        )
