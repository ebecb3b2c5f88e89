"""Multi-daemon cluster plane: shard leases, failure detection, handoff.

N ``hdpsr serve`` daemons share one :class:`~repro.hdss.store.ShardedChunkStore`
by partitioning its shards among themselves. Ownership is recorded in
**epoch-stamped, file-based leases** — one fsync'd record per shard under
``<cluster root>/leases/``, framed and checksummed exactly like journal
records (:mod:`repro.journal.wal`), so a torn lease write is indistinguishable
from no write at all. The shared filesystem is the only coordination
medium: there is no leader and no network consensus, just atomic renames.

The moving parts:

* :class:`ClusterClock` — wall time plus an injectable skew, so the
  ``clock_skew`` fault kind (and tests) can push one daemon's view of
  lease expiry around without touching the others.
* :class:`LeaseStore` — read/write one lease record per shard via
  tmp + fsync + atomic rename, guarded by an ``O_EXCL`` lockfile per
  shard so read-modify-write cycles (renew, claim) never lose updates.
* :class:`HashRing` — rendezvous hashing (highest CRC32C score wins) from
  shard index to a deterministic preference order over node ids. Failover
  targets are therefore reproducible: with two daemons, the survivor of a
  crash is always the same for a given shard.
* :class:`ClusterNode` — the per-daemon agent: publishes a heartbeat
  record, renews owned leases, detects dead peers (heartbeat lapse +
  lease expiry), claims their shards with a bumped epoch, and triggers
  the journal-handoff callback so the survivor resumes the dead peer's
  repairs byte-identically.

**Epoch fencing.** Every claim increments the shard's epoch. A daemon
that pauses (GC, overload, partition) past its lease TTL may revive
believing it still owns a shard; before any journal commit or chunk
write-back it must call :meth:`ClusterNode.check_fence`, which re-reads
the lease file and raises :class:`~repro.errors.FencedError` when the
on-disk owner or epoch has moved on. Stale owners can therefore never
clobber the survivor's writes — the split-brain window is closed at the
commit point, not at detection time.

Ownership is *sticky*: leases only change hands on expiry. A revived
node rejoins with zero shards and simply serves reads until something
expires in its favor.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FencedError, LeaseError
from repro.journal.wal import WALRecord, decode_stream, encode_record, fsync_dir
from repro.obs.context import current_registry
from repro.utils.checksum import crc32c

#: Record types inside lease / presence files.
LEASE_RECORD = "lease"
NODE_RECORD = "node"

#: Epoch value meaning "never owned" (first claim writes epoch 1).
NO_EPOCH = 0


class ClusterClock:
    """Wall clock with an injectable skew, one per daemon.

    Lease expiry must be comparable *across processes*, so the base is
    real wall time by default — but both the chaos harness (``clock_skew``
    fault) and the unit tests need to move one daemon's clock without
    waiting, hence the additive ``skew`` and the pluggable ``base``
    (pass ``lambda: t`` for a fully manual clock).
    """

    def __init__(self, base: Optional[Callable[[], float]] = None) -> None:
        self._base = base or time.time
        self.skew = 0.0

    def now(self) -> float:
        return self._base() + self.skew

    def advance(self, seconds: float) -> None:
        """Shift this clock by ``seconds`` (negative moves it back)."""
        self.skew += seconds


@dataclass(frozen=True)
class LeaseRecord:
    """One shard's ownership record.

    ``epoch`` increments on every change of owner and never decreases;
    renewals by the same owner keep it. ``expires_at`` is absolute wall
    time — past it the lease is *expired* and any preferred live node may
    claim the shard (with ``epoch + 1``).
    """

    shard: int
    owner: str
    endpoint: str
    epoch: int
    expires_at: float
    renewed_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def to_meta(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "owner": self.owner,
            "endpoint": self.endpoint,
            "epoch": self.epoch,
            "expires_at": self.expires_at,
            "renewed_at": self.renewed_at,
        }

    @classmethod
    def from_meta(cls, meta: Dict[str, object]) -> "LeaseRecord":
        try:
            return cls(
                shard=int(meta["shard"]),
                owner=str(meta["owner"]),
                endpoint=str(meta["endpoint"]),
                epoch=int(meta["epoch"]),
                expires_at=float(meta["expires_at"]),
                renewed_at=float(meta["renewed_at"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LeaseError(f"malformed lease record: {meta!r} ({exc})") from None


def _write_record_atomic(path: Path, record: WALRecord, *, durable: bool) -> None:
    """Write one WAL-framed record as the whole file, crash-atomically."""
    tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(encode_record(record))
        if durable:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if durable:
        fsync_dir(path.parent)


def _read_record(path: Path, expected_type: str) -> Optional[WALRecord]:
    """First intact record of ``path``, or None (missing/torn/corrupt)."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        for record in decode_stream(fh):
            if record.type == expected_type:
                return record
            return None
    return None


class LeaseStore:
    """Per-shard lease records on a shared directory.

    Layout::

        root/leases/shard-00.lease   one CRC32C-framed LeaseRecord each
        root/leases/shard-00.lock    O_EXCL lockfile for read-modify-write
        root/nodes/<node>.node       per-node heartbeat (presence) record

    A lease file is replaced wholesale on every renew/claim (tmp + fsync +
    rename), so readers see either the old record or the new one, never a
    blend; the CRC catches torn tails if the filesystem lies. The lockfile
    serializes the read-decide-write cycle between daemons — without it a
    reviving stale owner's renewal could overwrite a claimant's epoch bump
    (the classic lost update behind split-brain). Stale locks (a holder
    that died mid-cycle) are broken after ``lock_stale_after`` seconds.
    """

    def __init__(
        self,
        root: "str | os.PathLike",
        *,
        durable: bool = True,
        lock_stale_after: float = 5.0,
    ) -> None:
        self.root = Path(root)
        self.lease_dir = self.root / "leases"
        self.node_dir = self.root / "nodes"
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        self.node_dir.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        self.lock_stale_after = lock_stale_after

    # ----------------------------------------------------------------- leases
    def _lease_path(self, shard: int) -> Path:
        return self.lease_dir / f"shard-{shard:02d}.lease"

    def _lock_path(self, shard: int) -> Path:
        return self.lease_dir / f"shard-{shard:02d}.lock"

    def read(self, shard: int) -> Optional[LeaseRecord]:
        """The shard's current lease, or None if absent/torn."""
        record = _read_record(self._lease_path(shard), LEASE_RECORD)
        if record is None:
            return None
        lease = LeaseRecord.from_meta(record.meta)
        if lease.shard != shard:
            raise LeaseError(
                f"lease file for shard {shard} names shard {lease.shard}"
            )
        return lease

    def write(self, lease: LeaseRecord) -> None:
        """Replace the shard's lease record (call under :meth:`lock`)."""
        _write_record_atomic(
            self._lease_path(lease.shard),
            WALRecord(type=LEASE_RECORD, meta=lease.to_meta()),
            durable=self.durable,
        )

    def lock(self, shard: int) -> "_ShardLock":
        """Context manager serializing one shard's read-modify-write."""
        return _ShardLock(self._lock_path(shard), self.lock_stale_after)

    # --------------------------------------------------------------- presence
    def _node_path(self, node: str) -> Path:
        return self.node_dir / f"{node}.node"

    def publish_node(
        self, node: str, endpoint: str, alive_until: float, now: float
    ) -> None:
        """Write this node's heartbeat record (atomic replace)."""
        _write_record_atomic(
            self._node_path(node),
            WALRecord(
                type=NODE_RECORD,
                meta={
                    "node": node,
                    "endpoint": endpoint,
                    "alive_until": alive_until,
                    "renewed_at": now,
                },
            ),
            durable=self.durable,
        )

    def nodes(self) -> Dict[str, Dict[str, object]]:
        """All published node records, keyed by node id (torn ones skipped)."""
        out: Dict[str, Dict[str, object]] = {}
        for path in sorted(self.node_dir.glob("*.node")):
            record = _read_record(path, NODE_RECORD)
            if record is not None:
                out[str(record.meta.get("node", path.stem))] = record.meta
        return out

    def live_nodes(self, now: float) -> Dict[str, str]:
        """node id -> endpoint for every node whose heartbeat is current."""
        return {
            node: str(meta.get("endpoint", ""))
            for node, meta in self.nodes().items()
            if float(meta.get("alive_until", 0.0)) > now
        }


class _ShardLock:
    """``O_CREAT|O_EXCL`` lockfile with stale-holder breaking.

    Lock cycles are a few syscalls long, so contention is resolved by a
    short bounded spin; a lockfile older than ``stale_after`` means its
    holder died between acquire and release and is removed.
    """

    def __init__(self, path: Path, stale_after: float) -> None:
        self.path = path
        self.stale_after = stale_after

    def __enter__(self) -> "_ShardLock":
        deadline = time.monotonic() + max(1.0, 2 * self.stale_after)
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.close(fd)
                return self
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                    if age > self.stale_after:
                        self.path.unlink(missing_ok=True)
                        continue
                except OSError:
                    continue  # holder released between open and stat
                if time.monotonic() > deadline:
                    raise LeaseError(
                        f"could not acquire shard lock {self.path.name} "
                        f"within {2 * self.stale_after:.1f}s"
                    ) from None
                time.sleep(0.002)

    def __exit__(self, *exc) -> None:
        self.path.unlink(missing_ok=True)


class HashRing:
    """Rendezvous (highest-random-weight) hashing over node ids.

    For each shard, every node gets a CRC32C score of ``"node/shard"``;
    sorting by score yields a deterministic preference order. When a node
    disappears, each of its shards fails over to the next name on *that
    shard's* list — spreading load instead of dumping it on one successor,
    and reproducibly so (the chaos harness depends on knowing the heir).
    """

    @staticmethod
    def score(node: str, shard: int) -> int:
        return crc32c(f"{node}/{shard}".encode("utf-8"))

    @classmethod
    def preference(cls, shard: int, nodes: Sequence[str]) -> List[str]:
        """Node ids for ``shard``, most-preferred first (ties by name)."""
        return sorted(nodes, key=lambda n: (-cls.score(n, shard), n))

    @classmethod
    def owner(cls, shard: int, nodes: Sequence[str]) -> Optional[str]:
        order = cls.preference(shard, nodes)
        return order[0] if order else None


@dataclass(frozen=True)
class ClusterConfig:
    """Static identity + tuning of one daemon's cluster agent.

    Args:
        root: shared cluster directory (leases + node records). Must be
            on the same filesystem for every daemon of the cluster.
        node_id: this daemon's stable name (e.g. ``"node-a"``).
        endpoint: ``host:port`` peers and clients reach this daemon at.
        num_shards: shard count — must equal the shared store's
            ``num_shards`` (disk ``d`` lives on shard ``d % num_shards``).
        lease_ttl: seconds a lease (and heartbeat) stays valid without
            renewal; the failure-detection horizon.
        heartbeat_interval: seconds between renew/scan passes; must be
            comfortably below ``lease_ttl`` (a third or less).
        durable: fsync lease/presence writes (off for pure-sim tests).
    """

    root: str
    node_id: str
    endpoint: str = ""
    num_shards: int = 4
    lease_ttl: float = 2.0
    heartbeat_interval: float = 0.5
    durable: bool = True

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise LeaseError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.lease_ttl <= 0 or self.heartbeat_interval <= 0:
            raise LeaseError("lease_ttl and heartbeat_interval must be > 0")
        if self.heartbeat_interval >= self.lease_ttl:
            raise LeaseError(
                f"heartbeat_interval ({self.heartbeat_interval}) must be < "
                f"lease_ttl ({self.lease_ttl}) or leases expire between renewals"
            )


#: Async callback fired after this node claims a shard from a (dead) peer:
#: ``on_claim(shard, previous_owner)`` — previous owner is None for an
#: initial claim of a never-owned shard.
ClaimCallback = Callable[[int, Optional[str]], Awaitable[None]]


class ClusterNode:
    """One daemon's membership agent over a shared :class:`LeaseStore`.

    Drive it either with :meth:`run` (the daemon's background heartbeat
    loop) or by calling :meth:`tick` directly (tests, single-step chaos
    scenarios). Both are safe to mix — ``tick`` is synchronous except for
    the claim callbacks it schedules.
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        clock: Optional[ClusterClock] = None,
        on_claim: Optional[ClaimCallback] = None,
    ) -> None:
        self.config = config
        self.clock = clock or ClusterClock()
        self.on_claim = on_claim
        self.store = LeaseStore(
            config.root,
            durable=config.durable,
            lock_stale_after=max(5.0, 2 * config.lease_ttl),
        )
        #: shard -> epoch this node currently holds.
        self.held: Dict[int, int] = {}
        self.failovers = 0
        self.heartbeat_misses = 0
        self.ticks = 0
        self._last_live: Dict[str, str] = {}
        self._stopped = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._fence_cache: Dict[int, Tuple[float, LeaseRecord]] = {}

    # ------------------------------------------------------------- membership
    @property
    def node_id(self) -> str:
        return self.config.node_id

    @property
    def owned_shards(self) -> List[int]:
        return sorted(self.held)

    def shard_of_disk(self, disk_id: int) -> int:
        """Store shard holding ``disk_id`` (mirrors ShardedChunkStore)."""
        return disk_id % self.config.num_shards

    def owns_disk(self, disk_id: int) -> bool:
        return self.shard_of_disk(disk_id) in self.held

    def owner_of_shard(self, shard: int) -> Optional[LeaseRecord]:
        """Current on-disk lease for ``shard`` (None when unowned)."""
        return self.store.read(shard)

    # ------------------------------------------------------------------ ticks
    async def run(self) -> None:
        """Heartbeat loop: publish presence, renew, scan, claim — forever."""
        self._stopped.clear()
        while not self._stopped.is_set():
            await self.tick_async()
            try:
                await asyncio.wait_for(
                    self._stopped.wait(), timeout=self.config.heartbeat_interval
                )
            except asyncio.TimeoutError:
                pass

    def start(self) -> None:
        """Spawn :meth:`run` on the current event loop."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self.run())

    async def stop(self, *, release: bool = True) -> None:
        """Stop heartbeating. ``release=False`` models a crash: leases are
        left to expire so peers take over only after the TTL."""
        self._stopped.set()
        if self._task is not None:
            try:
                await self._task
            except asyncio.CancelledError:  # pragma: no cover - defensive
                pass
            self._task = None
        if release:
            self.release_all()

    async def tick_async(self) -> List[Tuple[int, Optional[str]]]:
        """One pass, awaiting claim callbacks; returns claims made."""
        claims = self.tick()
        if self.on_claim is not None:
            for shard, prev_owner in claims:
                await self.on_claim(shard, prev_owner)
        return claims

    def tick(self) -> List[Tuple[int, Optional[str]]]:
        """Publish presence, renew held leases, claim expired ones.

        Returns the ``(shard, previous_owner)`` pairs claimed this pass
        (claim callbacks are *not* run — use :meth:`tick_async` for that).
        """
        self.ticks += 1
        now = self.clock.now()
        cfg = self.config
        self.store.publish_node(
            cfg.node_id, cfg.endpoint, now + cfg.lease_ttl, now
        )
        live = self.store.live_nodes(now)
        # Transition-based heartbeat misses: a peer seen live before whose
        # record has now lapsed is one miss (and a takeover candidate).
        for peer in self._last_live:
            if peer != cfg.node_id and peer not in live:
                self.heartbeat_misses += 1
                self._counter(
                    "hdpsr_cluster_heartbeat_misses_total",
                    "Peer heartbeat records found expired.",
                ).inc()
        self._last_live = live
        claims: List[Tuple[int, Optional[str]]] = []
        for shard in range(cfg.num_shards):
            claimed = self._tick_shard(shard, now, live)
            if claimed is not None:
                claims.append(claimed)
        return claims

    def _tick_shard(
        self, shard: int, now: float, live: Dict[str, str]
    ) -> Optional[Tuple[int, Optional[str]]]:
        cfg = self.config
        lease = self.store.read(shard)
        if lease is not None and lease.owner == cfg.node_id:
            if shard not in self.held:
                # We hold a lease on disk we don't remember — a prior run
                # of this node id. Treat as expired unless still valid.
                self.held[shard] = lease.epoch
            if self.held.get(shard) != lease.epoch:
                # On-disk epoch moved past ours and back to us? Adopt it.
                self.held[shard] = lease.epoch
            with self.store.lock(shard):
                current = self.store.read(shard)
                if (
                    current is None
                    or current.owner != cfg.node_id
                    or current.epoch != self.held.get(shard)
                ):
                    # Lost it between read and lock: demote.
                    self.held.pop(shard, None)
                    self._fence_cache.pop(shard, None)
                    return None
                self.store.write(
                    LeaseRecord(
                        shard=shard,
                        owner=cfg.node_id,
                        endpoint=cfg.endpoint,
                        epoch=current.epoch,
                        expires_at=now + cfg.lease_ttl,
                        renewed_at=now,
                    )
                )
            return None
        if lease is not None and shard in self.held:
            # Someone else owns a shard we thought we held: fenced/demoted.
            self.held.pop(shard, None)
            self._fence_cache.pop(shard, None)
        if lease is not None and not lease.expired(now):
            return None  # live foreign lease — ownership is sticky
        # Unowned or expired: claim only if we are the preferred live node.
        candidates = sorted(set(live) | {cfg.node_id})
        if HashRing.owner(shard, candidates) != cfg.node_id:
            return None
        with self.store.lock(shard):
            current = self.store.read(shard)
            if current is not None and not current.expired(now) and (
                current.owner != cfg.node_id
            ):
                return None  # raced: someone renewed/claimed first
            prev_owner = current.owner if current is not None else None
            epoch = (current.epoch if current is not None else NO_EPOCH) + 1
            self.store.write(
                LeaseRecord(
                    shard=shard,
                    owner=cfg.node_id,
                    endpoint=cfg.endpoint,
                    epoch=epoch,
                    expires_at=now + cfg.lease_ttl,
                    renewed_at=now,
                )
            )
        self.held[shard] = epoch
        self._fence_cache.pop(shard, None)
        if prev_owner is not None and prev_owner != cfg.node_id:
            self.failovers += 1
            self._counter(
                "hdpsr_cluster_failovers_total",
                "Shards claimed from a dead peer.",
            ).inc()
        return (shard, prev_owner if prev_owner != cfg.node_id else None)

    # ---------------------------------------------------------------- fencing
    def check_fence(self, disk_id: int) -> None:
        """Raise :class:`FencedError` unless this node still owns the
        shard holding ``disk_id`` at the epoch it believes it does.

        Re-reads the lease file (with a one-heartbeat cache so per-chunk
        commits don't turn into per-chunk stats), which is what makes a
        revived stale owner fail *at the commit point* even though its
        in-memory state says it owns the shard.
        """
        shard = self.shard_of_disk(disk_id)
        held_epoch = self.held.get(shard)
        if held_epoch is None:
            raise FencedError(
                f"node {self.node_id} does not hold shard {shard} "
                f"(disk {disk_id})",
                shard=shard,
                held_epoch=NO_EPOCH,
                current_epoch=NO_EPOCH,
            )
        now = self.clock.now()
        cached = self._fence_cache.get(shard)
        if cached is not None and now - cached[0] < self.config.heartbeat_interval:
            lease = cached[1]
        else:
            lease = self.store.read(shard)
            if lease is not None:
                self._fence_cache[shard] = (now, lease)
        if lease is None or lease.owner != self.node_id or lease.epoch != held_epoch:
            self.held.pop(shard, None)
            self._fence_cache.pop(shard, None)
            current = lease.epoch if lease is not None else NO_EPOCH
            owner = lease.owner if lease is not None else "<none>"
            raise FencedError(
                f"node {self.node_id} fenced off shard {shard}: held epoch "
                f"{held_epoch}, but {owner} owns it at epoch {current}",
                shard=shard,
                held_epoch=held_epoch,
                current_epoch=current,
            )

    def release_all(self) -> None:
        """Gracefully drop every held lease (clean shutdown, not crash)."""
        now = self.clock.now()
        for shard, epoch in sorted(self.held.items()):
            with self.store.lock(shard):
                current = self.store.read(shard)
                if current is None or current.owner != self.node_id:
                    continue
                self.store.write(
                    LeaseRecord(
                        shard=shard,
                        owner=self.node_id,
                        endpoint=self.config.endpoint,
                        epoch=epoch,
                        expires_at=now,  # instantly claimable
                        renewed_at=now,
                    )
                )
        self.held.clear()
        self._fence_cache.clear()

    # ------------------------------------------------------------------ intro
    def status(self) -> Dict[str, object]:
        """JSON-able snapshot for the ``cluster`` protocol verb / top — and
        what the telemetry plane derives the ``hdpsr_cluster_*`` gauges from."""
        now = self.clock.now()
        leases = {}
        for shard in range(self.config.num_shards):
            lease = self.store.read(shard)
            if lease is not None:
                leases[str(shard)] = {
                    "owner": lease.owner,
                    "endpoint": lease.endpoint,
                    "epoch": lease.epoch,
                    "expires_in": round(lease.expires_at - now, 3),
                }
        return {
            "node": self.node_id,
            "endpoint": self.config.endpoint,
            "num_shards": self.config.num_shards,
            "owned_shards": self.owned_shards,
            "epochs": {str(s): e for s, e in sorted(self.held.items())},
            "live_nodes": self.store.live_nodes(now),
            "leases": leases,
            "failovers": self.failovers,
            "heartbeat_misses": self.heartbeat_misses,
            "ticks": self.ticks,
            "clock_skew": self.clock.skew,
        }

    # ---------------------------------------------------------------- metrics
    def _counter(self, name: str, help: str):
        return current_registry().counter(name, help)
