"""The chaos rig: what the three ``hdpsr chaos`` scenarios share.

:mod:`~repro.service.chaos` (kill the owner), :mod:`~repro.service.chaos_overload`
(flash crowd) and :mod:`~repro.service.chaos_bitrot` (silent corruption)
each say what to inject, when, and what to assert about it. What they have
in common lives here, once, and nothing scenario-specific does:

* the fixed geometry and :func:`build_server` / :func:`build_service` — the
  one place a chaos server is assembled (the service tests and the overload
  and scrub benches included);
* :class:`Episode` — the failure ledger, the hard deadline, and the steps
  every scenario takes (``await_until``, ``start_repair``,
  ``wait_certified``, ``check_memory``, ``finish``). The repair steps go
  through a plain ``call(op, **fields)``, so the TCP episode and the
  in-process ones (:func:`in_process`) run the same code;
* the invariants, each a ``check_*`` function returning a failure string
  or ``None`` — written once, so they can be checked across many seeds;
* the store decorators the scenarios measure with, :class:`CountingStore`
  and :class:`PacedStore` (also the paced disks ``bench_wallclock.py``
  runs the daemon over).
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from typing import Awaitable, Callable, Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.core import ALGORITHMS
from repro.ec.stripe import ChunkId
from repro.errors import ChunkNotFoundError, FencedError, LatentSectorError
from repro.hdss.server import HDSSConfig, HighDensityStorageServer
from repro.hdss.store import ChunkStore, ForwardingChunkStore, Key
from repro.obs.context import current_registry
from repro.service.netserver import ServiceDaemon
from repro.service.protocol import ERR_INTERNAL
from repro.service.service import RepairService, ServiceConfig
from repro.utils.validation import check_positive

#: ``call(op, **fields)`` → the daemon's reply dict. A TCP client raises on
#: a refusal; the in-process one returns the ``ok: false`` reply.
Call = Callable[..., Awaitable[dict]]

# The one geometry every chaos episode, its tests and its benches run at:
# RS(5,3) over 12 disks with rotating placement, so a 12-stripe volume
# puts 5 stripes on any one disk — enough for a crash to land mid-repair
# with some stripes journaled and some in flight, small enough for tier-1.
NUM_DISKS = 12
N = 5
K = 3
MEMORY_CHUNKS = 16
SPARES = 3
ALGORITHM = "hd-psr-ap"


# ------------------------------------------------------------------ assembly
def build_server(
    store: Optional[ChunkStore] = None,
    *,
    stripes: int = 12,
    seed: int = 11,
    chunk_size: int = 2048,
) -> HighDensityStorageServer:
    """A provisioned chaos-geometry server over ``store``."""
    server = HighDensityStorageServer(
        HDSSConfig(
            num_disks=NUM_DISKS, n=N, k=K, chunk_size=chunk_size,
            memory_chunks=MEMORY_CHUNKS, spares=SPARES, seed=seed,
            placement="rotating",
        ),
        store=store,
    )
    server.provision_stripes(stripes, with_data=True)
    return server


def build_service(
    server: HighDensityStorageServer, *, faults=None, fence=None, **config
) -> RepairService:
    """A :class:`RepairService` running the chaos algorithm over ``server``;
    ``config`` are :class:`ServiceConfig` fields (journals are never
    fsync'd here: the episodes kill tasks, not the kernel)."""
    config.setdefault("durable_journal", False)
    return RepairService(
        server, ALGORITHMS[ALGORITHM](), ServiceConfig(**config),
        faults=faults, fence=fence,
    )


def originals_of(server: HighDensityStorageServer) -> Dict[int, bytes]:
    """Every object's bytes right now — what recovery must reproduce."""
    return {si: server.read_object(si) for si in range(len(server.layout))}


def in_process(daemon: ServiceDaemon) -> Call:
    """``call(op, **fields)`` through
    :meth:`~repro.service.netserver.ServiceDaemon.handle_request`: full
    protocol semantics, no TCP framing, so a thousand-request open-loop
    flood doesn't need a thousand sockets."""

    async def call(op: str, **fields) -> dict:
        return await daemon.handle_request({"op": op, **fields})

    return call


def error_code(reply: dict) -> Optional[str]:
    """``None`` for an ``ok`` reply, else its error code — what a pacer
    ``send`` (:func:`~repro.service.client.pace_open_loop`) returns."""
    return None if reply.get("ok") else str(reply.get("code", ERR_INTERNAL))


# -------------------------------------------------------------- the decorators
class CountingStore(ForwardingChunkStore):
    """Per-chunk op counts: "no chunk was persisted twice", and the
    repair's read arithmetic (``k`` gets per stripe, one verify per chunk
    landed).

    Counts each persisted, read (``get``) and verified (``verify_chunk``)
    ``(disk, chunk)``. :meth:`reset` is called after provisioning so only
    repair-plane traffic is audited; foreground reads never write, so any
    key with write count > 1 after the scenario is a genuine duplicate
    write across the two daemons.
    """

    def __init__(self, inner: ChunkStore) -> None:
        super().__init__(inner)
        self.write_counts: Counter = Counter()
        self.read_counts: Counter = Counter()
        self.verify_counts: Counter = Counter()

    def reset(self) -> None:
        for counts in (self.write_counts, self.read_counts, self.verify_counts):
            counts.clear()

    def duplicates(self) -> List[Key]:
        return sorted(k for k, c in self.write_counts.items() if c > 1)

    def put(self, disk_id: int, chunk_id: ChunkId, data: np.ndarray) -> None:
        self.write_counts[disk_id, chunk_id] += 1
        self.inner.put(disk_id, chunk_id, data)

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        self.read_counts[disk_id, chunk_id] += 1
        return self.inner.get(disk_id, chunk_id)

    def verify_chunk(self, disk_id: int, chunk_id: ChunkId) -> bool:
        self.verify_counts[disk_id, chunk_id] += 1
        return self.inner.verify_chunk(disk_id, chunk_id)


class PacedStore(ForwardingChunkStore):
    """Delegating store whose reads cost a real wall-clock service time.

    The one device model that sleeps: a ``get`` on disk ``d`` sleeps
    ``latency_s + nbytes / rates[d]`` in a worker thread of its own (a
    disk missing from ``rates`` costs ``latency_s`` only). The store says
    ``reads_overlap``, so the service reads a round's survivors side by
    side. How many reads a disk serves at once is the service's
    :class:`~repro.service.admission.DiskGate`, not this store's: a gate
    of width ``w`` gives a disk of service time ``s`` a real capacity of
    ``w / s`` reads per second, and width 1 is a spindle serving one
    request at a time. Offered load beyond it builds a real standing
    queue with real waits for the controller to measure.
    """

    #: A read waits out its service time: worth a thread of its own.
    reads_overlap = True

    def __init__(
        self,
        inner: ChunkStore,
        latency_s: float = 0.0,
        rates: Optional[Mapping[int, float]] = None,
    ) -> None:
        super().__init__(inner)
        self.latency_s = latency_s
        #: Bytes per second, per disk id.
        self.rates: Dict[int, float] = {
            disk_id: check_positive(f"rates[{disk_id}]", rate)
            for disk_id, rate in (rates or {}).items()
        }
        self.reads = 0

    def get(self, disk_id: int, chunk_id: ChunkId) -> np.ndarray:
        self.reads += 1
        data = self.inner.get(disk_id, chunk_id)
        rate = self.rates.get(disk_id)
        time.sleep(self.latency_s + (data.nbytes / rate if rate else 0.0))
        return data

    # The looping default on purpose: a verify is a read through
    # :meth:`get`, so it pays the service time like any other.
    verify_chunk = ChunkStore.verify_chunk


# ------------------------------------------------------------- the invariants
async def check_byte_identical(
    read_object: Callable[[int], "bytes | Awaitable[bytes]"],
    originals: Dict[int, bytes],
    skip: Iterable[int] = (),
) -> Optional[str]:
    """Every object reads back exactly as written (``read_object`` sync or
    async; a read that raises counts as a mismatch). ``skip`` names stripes
    a negative control must not touch."""
    skip = set(skip)
    mismatched = []
    for si, want in originals.items():
        if si in skip:
            continue
        try:
            got = read_object(si)
            if asyncio.iscoroutine(got):
                got = await got
        except Exception as exc:  # noqa: BLE001 - recorded as mismatch
            mismatched.append((si, repr(exc)))
            continue
        if got != want:
            mismatched.append((si, "bytes differ"))
    if mismatched:
        return f"objects not byte-identical after recovery: {mismatched}"
    return None


def check_no_duplicate_writes(store: CountingStore) -> Optional[str]:
    """No ``(disk, chunk)`` was persisted twice since ``store.reset()``."""
    dupes = store.duplicates()
    if dupes:
        return f"{len(dupes)} chunk(s) persisted twice: {dupes[:5]}"
    return None


def bad_digests(store: ChunkStore, keys: Iterable[Key]) -> List[Key]:
    """The ``keys`` whose bytes disagree with their digest (or are
    unreadable, or gone) when re-read end to end."""
    bad = []
    for disk, cid in keys:
        try:
            ok = store.verify_chunk(disk, cid)
        except (LatentSectorError, ChunkNotFoundError):
            ok = False
        if not ok:
            bad.append((disk, cid))
    return bad


def check_digests_verify(store: ChunkStore, keys: Iterable[Key]) -> Optional[str]:
    """Every chunk in ``keys`` passes an end-to-end digest verify."""
    bad = bad_digests(store, keys)
    if bad:
        return f"digest mismatch on rebuilt chunks: {bad}"
    return None


def check_stale_owner_fenced(node, disk: int) -> Optional[str]:
    """A revived owner whose in-memory state still says it holds ``disk``'s
    shard is refused at the commit point: the on-disk lease carries the
    survivor's bumped epoch."""
    try:
        node.check_fence(disk)
    except FencedError:
        return None
    return "revived stale owner passed the fence — split-brain possible"


def check_repair_certified(summary: dict, what: str = "repair") -> Optional[str]:
    """A repair job's ``wait`` summary says it certified clean."""
    if not summary.get("certified", False):
        return f"{what} did not certify clean"
    return None


def check_parity_clean(
    server: HighDensityStorageServer, stripes: Iterable[int]
) -> Optional[str]:
    """The full-stripe proof a repair job no longer pays for itself: every
    shard of ``stripes`` re-read and parity re-encoded
    (:meth:`~repro.hdss.server.HighDensityStorageServer.scrub`), all clean."""
    stripes = list(stripes)
    report = server.scrub(stripes)
    if report.clean != stripes:
        return f"parity scrub of repaired stripes not clean: {report}"
    return None


def check_memory_released(service: RepairService) -> Optional[str]:
    """Every chunk slot went back, however its round ended (fed, crashed,
    fence lost, cancelled), and the memory never held more than ``c``."""
    memory = service.server.memory
    if memory.in_use or memory.peak > memory.capacity:
        return f"repair memory leaked or overran: {memory!r}"
    return None


# ------------------------------------------------------------------ the episode
class Episode:
    """What every scenario carries: its config, a failure ledger, and one
    hard deadline (``config.deadline`` seconds from construction) that
    bounds every wait it makes."""

    def __init__(self, config) -> None:
        self.config = config
        self.failures: List[str] = []
        self._deadline = time.monotonic() + config.deadline

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, failure: Optional[str]) -> bool:
        """Record an invariant's verdict; True when it held."""
        if failure is not None:
            self.fail(failure)
        return failure is None

    def remaining(self) -> float:
        """Seconds a wait may still take (never under one: a late step
        gets a fair try, the deadline is not a guillotine)."""
        return max(1.0, self._deadline - time.monotonic())

    async def await_until(
        self, predicate, what: str, timeout: Optional[float] = None
    ) -> bool:
        """Poll ``predicate`` (sync or async) until true; a timeout is
        recorded as a failure and returns False."""
        budget = self.remaining()
        if timeout is not None:
            budget = min(budget, timeout)
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            result = predicate()
            if asyncio.iscoroutine(result):
                result = await result
            if result:
                return True
            await asyncio.sleep(0.02)
        self.fail(f"timed out waiting for {what}")
        return False

    async def start_repair(self, call: Call, disk: int, **route) -> Optional[int]:
        """Fail ``disk`` and submit its repair (two requests, in that
        order); returns the job id. ``route`` goes to ``call`` untouched
        (a cluster client's ``shard=`` hint)."""
        reply: dict = {}
        for op in ("fail_disk", "repair"):
            reply = await call(op, disk=disk, **route)
            if not reply.get("ok"):
                self.fail(f"{op} refused: {reply}")
        return reply.get("job_id")

    async def wait_certified(
        self, call: Call, job_id: Optional[int], what: str = "repair"
    ) -> dict:
        """Wait the job out inside the deadline and check it certified;
        returns its summary (``{}`` when it never finished)."""
        if job_id is None:
            return {}
        budget = self.remaining()
        try:
            reply = await asyncio.wait_for(
                call("wait", job_id=job_id), timeout=budget
            )
        except asyncio.TimeoutError:
            self.fail(f"{what} did not finish within {budget:.0f}s")
            return {}
        self.check(check_repair_certified(reply, what))
        return {k: v for k, v in reply.items() if k not in ("ok", "trace_id")}

    def check_memory(self, report: dict, *services: RepairService) -> None:
        """:func:`check_memory_released` on each; ``report["memory"]``."""
        for service in services:
            self.check(check_memory_released(service))
        ledgers = [service.server.memory for service in services]
        report["memory"] = {
            "peak": max(m.peak for m in ledgers),
            "capacity": ledgers[0].capacity,
            "leaked": sum(m.in_use for m in ledgers),
        }

    def finish(self, report: dict) -> dict:
        """The report epilogue: failures, ``passed``, and the one
        ``hdpsr_chaos_runs_total`` increment."""
        report["failures"] = list(self.failures)
        report["passed"] = not self.failures
        current_registry().counter(
            "hdpsr_chaos_runs_total", "Chaos scenarios executed.",
        ).labels(outcome="pass" if report["passed"] else "fail").inc()
        return report
