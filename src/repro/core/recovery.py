"""The complete recovery workflow in one call.

:func:`recover_disk` is the high-level "a disk just died" entry point a
downstream operator wants: it plans with the chosen HD-PSR scheme,
predicts the repair time on the simulated timeline, moves the actual bytes
through the bounded memory, writes rebuilt chunks to spares, commits the
placement remap, and certifies the affected stripes from what the repair
already verified (see :meth:`~repro.core.repair_job.RepairJob.certify`).

:func:`recover_disks` is the multi-failure counterpart: it unions the
failed disks' stripe sets and rebuilds every lost chunk of each affected
stripe from a single k-survivor read (cooperative repair, §4.4) on the
byte-exact plane.

Both move the bytes through the repair daemon's own job body,
:meth:`~repro.service.service.RepairService.run_job`, on a private service
with one stripe in flight. Both accept a
:class:`~repro.faults.spec.FaultSchedule` (``faults=``) and a
:class:`~repro.core.stripe_repair.ReadPolicy` (``policy=``); with either
set the data path runs hardened — mid-repair failures are re-planned
around, slow disks are retried or hedged, and unrecoverable stripes land in
``result.loss`` instead of raising. A survivor that fails its digest is
quarantined and rewritten by its stripe's own pass, as in the daemon.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.base import RepairAlgorithm, RepairContext
from repro.core.repair_job import DataPathStats, certified, plan_repair
from repro.core.scheduler import RepairOutcome, repair_single_disk, simulate
from repro.core.stripe_repair import ReadPolicy
from repro.ec.stripe import ChunkId
from repro.errors import JournalError, StorageError
from repro.faults.report import DataLossReport
from repro.faults.spec import FaultSchedule
from repro.hdss.prober import ActiveProber
from repro.hdss.server import HighDensityStorageServer, ScrubReport
from repro.journal.journal import RepairJournal, load_state
from repro.sim.metrics import TransferReport


@dataclass
class RecoveryResult:
    """Everything one recovery produced, across all three planes."""

    #: Simulated-timeline outcome (repair time, ACWT, the plan).
    outcome: RepairOutcome
    #: Byte-level stats (chunks rebuilt, bytes moved, peak memory).
    data_path: DataPathStats
    #: Shards remapped onto spares.
    remapped: int
    #: Certification of the affected stripes (lost stripes excluded): what
    #: :meth:`~repro.core.repair_job.RepairJob.certify` proved in hand, not
    #: a full parity scrub (that is ``server.scrub``).
    scrub: ScrubReport
    #: Per-stripe fault outcomes; ``None`` when the run was fault-free by
    #: construction (no schedule and no read policy).
    loss: Optional[DataLossReport] = None

    @property
    def certified(self) -> bool:
        """See :func:`repro.core.repair_job.certified`."""
        return certified(self.loss, self.scrub)

    def summary(self) -> dict:
        out = {
            "algorithm": self.outcome.algorithm,
            "repair_time": self.outcome.transfer_time,
            "stripes": len(self.outcome.stripe_indices),
            "chunks_rebuilt": self.data_path.chunks_rebuilt,
            "bytes_written": self.data_path.bytes_written,
            "peak_memory_chunks": self.data_path.peak_memory_chunks,
            "remapped": self.remapped,
            "certified": self.certified,
        }
        if self.loss is not None:
            out["faults"] = self.loss.summary()
        return out


def _recover(
    server: HighDensityStorageServer,
    algorithm: RepairAlgorithm,
    failed: Sequence[int],
    plan_outcome,
    faults: Optional[FaultSchedule],
    policy: Optional[ReadPolicy],
    journal: "str | os.PathLike | RepairJournal | None",
    resume: bool,
) -> RecoveryResult:
    """The one recovery: plan or resume, then run the job as the daemon does.

    ``plan_outcome()`` plans a fresh run on the timing plane; a resumed run
    reuses the journaled plan verbatim and reports a zeroed timing-plane
    report — simulated repair time belongs to the run that planned it. The
    job runs on a private :class:`~repro.service.service.RepairService`,
    one stripe in flight, so its reads, faults and salvage ladder are the
    daemon's own.
    """
    # Imported here: building the CLI parser must not load the service.
    from repro.service.service import RepairService, ServiceConfig, ServiceJob

    jrnl = (
        journal
        if journal is None or isinstance(journal, RepairJournal)
        else RepairJournal(journal)
    )
    fingerprint = server.config.fingerprint()
    if resume:
        if jrnl is None:
            raise JournalError("resume=True needs a journal directory")
        job = ServiceJob.resumed(load_state(jrnl.root), fingerprint, jrnl.root)
        outcome = RepairOutcome(
            algorithm=job.plan.algorithm,
            plan=job.plan,
            report=TransferReport(total_time=0.0),
            stripe_indices=job.stripe_indices,
            survivor_ids=job.survivor_ids,
        )
    else:
        outcome = plan_outcome()
        job = ServiceJob(
            outcome.plan, outcome.stripe_indices, outcome.survivor_ids,
            failed, fingerprint,
            hardened=bool(faults) or policy is not None or jrnl is not None,
        )
    job.journal = jrnl
    # The data path needs actual survivor bytes, not metadata-only stripes.
    sample = server.layout[job.stripe_indices[0]]
    shard = job.survivor_ids[0][0]
    if not server.store.contains(sample.disks[shard], ChunkId(sample.index, shard)):
        raise StorageError(
            "server holds no chunk bytes; provision with with_data=True "
            "(or use repair_single_disk for timing-only studies)"
        )
    if server.memory.in_use:
        raise StorageError(f"repair memory is not empty: {server.memory!r}")
    service = RepairService(
        server, algorithm,
        ServiceConfig(policy=policy, max_concurrent_stripes=1),
        faults=faults or None,
    )

    scrub = asyncio.run(service.run_job(job))
    stats = job.stats
    stats.peak_memory_chunks = server.memory.peak
    return RecoveryResult(
        outcome=outcome, data_path=stats, remapped=job.remapped, scrub=scrub,
        loss=stats.loss,
    )


def recover_disk(
    server: HighDensityStorageServer,
    algorithm: RepairAlgorithm,
    failed_disk: int,
    context: Optional[RepairContext] = None,
    faults: Optional[FaultSchedule] = None,
    policy: Optional[ReadPolicy] = None,
    journal: "str | os.PathLike | RepairJournal | None" = None,
    resume: bool = False,
) -> RecoveryResult:
    """Fully recover one failed disk: plan, rebuild, commit, certify.

    The disk must already be failed and the server must hold real chunk
    bytes (``with_data=True`` provisioning or ``write_object``).

    ``faults`` binds a :class:`~repro.faults.injector.FaultInjector` to the
    data path (events fire as the logical clock advances); ``policy`` adds
    per-read timeouts/retries/hedging. With either set, unrecoverable
    stripes are recorded in ``result.loss`` instead of raising.

    ``journal`` (a directory path or open
    :class:`~repro.journal.journal.RepairJournal`) logs the repair's
    progress crash-consistently; with ``resume=True`` the journaled plan is
    reused verbatim — no re-planning, no re-probing — completed stripes
    whose rebuilt chunks are on their spares (or, over a volatile store, in
    the journal) are replayed without a survivor read, and the stripe that
    was in flight restarts from the plan.

    Raises:
        StorageError: disk healthy / nothing to repair / store is
            metadata-only (nothing to rebuild byte-for-byte).
        JournalError: ``resume`` without a journal, or the journal belongs
            to a different server configuration.
    """
    return _recover(
        server, algorithm, server.failed_disks(),
        lambda: repair_single_disk(
            server, algorithm, failed_disk, context=context
        ),
        faults, policy, journal, resume,
    )


def recover_disks(
    server: HighDensityStorageServer,
    algorithm: RepairAlgorithm,
    failed_disks: Sequence[int],
    context: Optional[RepairContext] = None,
    faults: Optional[FaultSchedule] = None,
    policy: Optional[ReadPolicy] = None,
    select: str = "first",
    probe_noise: float = 0.02,
    journal: "str | os.PathLike | RepairJournal | None" = None,
    resume: bool = False,
) -> RecoveryResult:
    """Cooperatively recover several failed disks on the byte-exact plane.

    The failed disks' stripe sets are unioned and deduplicated; each
    affected stripe is repaired exactly once, rebuilding *all* of its lost
    chunks from a single k-survivor read (the multi-target capability of
    :class:`~repro.ec.partial.PartialDecoder`). This is the data-path twin
    of :func:`~repro.core.multi_disk.cooperative_multi_disk_repair`, which
    covers the timing plane.

    ``faults``/``policy`` harden the run exactly as in :func:`recover_disk`
    — the scripted "second disk dies mid-round" scenario goes through here:
    the injector really fails the disk, the repair salvages each stripe's
    accumulated partial sums via ``PartialDecoder.replan``, and stripes
    left with fewer than k readable shards are reported in ``result.loss``.

    Raises:
        StorageError: no failed disks, a listed disk is healthy, no
            affected stripes, or the store is metadata-only.
    """
    failed: List[int] = list(dict.fromkeys(failed_disks))
    if not failed:
        raise StorageError("no failed disks given")
    for d in failed:
        if not server.disk(d).is_failed:
            raise StorageError(f"disk {d} is healthy; fail it before repairing")
    return _recover(
        server, algorithm, failed,
        lambda: simulate(
            plan_repair(
                server, algorithm, failed, select=select,
                prober=ActiveProber(server, noise=probe_noise), context=context,
            ),
            server,
        ),
        faults, policy, journal, resume,
    )
