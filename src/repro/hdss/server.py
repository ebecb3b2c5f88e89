"""The assembled high-density storage server.

:class:`HighDensityStorageServer` wires disks, stripe placement, the chunk
store, and the c-chunk repair memory together, and exposes exactly what the
repair algorithms need:

* the per-disk *stripe sets* (what a failed disk drags into repair);
* the ``L_{s×k}`` transfer-time matrix for the stripes a recovery touches —
  the central input of §4's algorithms;
* failure/degradation injection and hot-spare disks for write-back.

The server can be *metadata-only* (no chunk bytes; pure scheduling studies)
or *data-bearing* (real RS-encoded bytes; end-to-end byte-exact repair).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ec.encoder import RSCode
from repro.ec.stripe import ChunkId, Stripe, StripeLayout
from repro.errors import (
    ConfigurationError,
    DiskFailedError,
    LatentSectorError,
    StorageError,
)
from repro.hdss.disk import Disk
from repro.hdss.placement import random_placement, rotating_placement
from repro.hdss.profiles import SpeedProfile, UniformProfile, build_disks
from repro.hdss.store import ChunkStore, InMemoryChunkStore
from repro.utils.rng import derive_seed, make_rng
from repro.utils.units import MiB, parse_size
from repro.utils.validation import check_positive


@dataclass
class ScrubReport:
    """Per-stripe verdicts of a verification pass.

    Two producers fill it. :meth:`HighDensityStorageServer.scrub` is the
    parity scrub: every shard re-read, parity re-encoded. A repair job's
    :meth:`~repro.core.repair_job.RepairJob.certify` reports in the same
    vocabulary what it proved in hand — every home live and readable, every
    landed chunk matching its checksum — and never says ``corrupt``.
    """

    #: Fully present and parity-consistent (scrub); every shard home
    #: readable and every rebuilt chunk verified (certification).
    clean: List[int] = field(default_factory=list)
    #: Missing or unverifiable chunks (failed disk, not yet repaired,
    #: unreadable sector, failed checksum) — cannot vouch for the stripe.
    degraded: List[int] = field(default_factory=list)
    #: All chunks present but parity disagrees: silent corruption.
    corrupt: List[int] = field(default_factory=list)
    #: Metadata-only stripes with no stored bytes at all.
    unpopulated: List[int] = field(default_factory=list)

    @property
    def stripes_checked(self) -> int:
        return len(self.clean) + len(self.degraded) + len(self.corrupt) + len(self.unpopulated)

    @property
    def healthy(self) -> bool:
        return not self.corrupt and not self.degraded


@dataclass
class HDSSConfig:
    """Configuration of one high-density storage server.

    Attributes:
        num_disks: spindles in the chassis (paper testbed: 36).
        n, k: RS code parameters.
        chunk_size: bytes per chunk (paper default 64 MiB); accepts
            ``"64MiB"`` strings.
        memory_chunks: repair memory capacity ``c`` in chunks.
        spares: hot-spare disks appended after the regular ones; repaired
            chunks are written back to these.
        profile: disk speed distribution (default uniform 180 MB/s — a
            d3en-class SATA disk).
        jitter: per-transfer multiplicative noise on each disk.
        placement: ``"rotating"`` or ``"random"``.
        matrix_style: RS matrix construction (``"vandermonde"``/``"cauchy"``).
        seed: master seed; every stochastic sub-component derives from it.
    """

    num_disks: int = 36
    n: int = 9
    k: int = 6
    chunk_size: "int | str" = 64 * MiB
    memory_chunks: int = 12
    spares: int = 3
    profile: Optional[SpeedProfile] = None
    jitter: float = 0.0
    placement: str = "rotating"
    matrix_style: str = "vandermonde"
    seed: int = 0
    enclosure_size: Optional[int] = None

    def __post_init__(self) -> None:
        self.chunk_size = parse_size(self.chunk_size)
        check_positive("num_disks", self.num_disks)
        check_positive("chunk_size", self.chunk_size)
        check_positive("memory_chunks", self.memory_chunks)
        if self.spares < 0:
            raise ConfigurationError(f"spares must be >= 0, got {self.spares}")
        if not (0 < self.k < self.n):
            raise ConfigurationError(f"require 0 < k < n, got n={self.n}, k={self.k}")
        if self.n > self.num_disks:
            raise ConfigurationError(
                f"n={self.n} shards cannot be spread over {self.num_disks} disks"
            )
        if self.memory_chunks < self.k:
            raise ConfigurationError(
                f"memory_chunks={self.memory_chunks} cannot hold one FSR stripe of k={self.k}"
            )
        if self.placement not in ("rotating", "random"):
            raise ConfigurationError(f"unknown placement {self.placement!r}")
        if self.enclosure_size is not None and self.enclosure_size < 1:
            raise ConfigurationError(
                f"enclosure_size must be >= 1, got {self.enclosure_size}"
            )
        if self.profile is None:
            self.profile = UniformProfile(180e6)

    def fingerprint(self) -> dict:
        """Identity of this configuration for journal/resume validation.

        A ``--resume`` against a server built with different code, layout,
        or sizing parameters would replay chunk payloads into the wrong
        places; the journal stores this dict at ``begin`` and the recovery
        path refuses to resume on a mismatch.
        """
        return {
            "num_disks": self.num_disks,
            "n": self.n,
            "k": self.k,
            "chunk_size": int(self.chunk_size),
            "memory_chunks": self.memory_chunks,
            "spares": self.spares,
            "placement": self.placement,
            "matrix_style": self.matrix_style,
            "seed": self.seed,
        }


class HighDensityStorageServer:
    """One erasure-coded HDSS: disks + placement + store + repair memory."""

    def __init__(self, config: HDSSConfig, store: Optional[ChunkStore] = None) -> None:
        self.config = config
        self.code = RSCode(config.n, config.k, matrix_style=config.matrix_style)
        total_disks = config.num_disks + config.spares
        self.disks: List[Disk] = build_disks(
            total_disks,
            config.profile,
            capacity=0,
            jitter=config.jitter,
            seed=derive_seed(config.seed, "disks"),
        )
        self.layout = StripeLayout()
        self.store: ChunkStore = store if store is not None else InMemoryChunkStore()
        # Imported here: repro.core's package import needs this module.
        from repro.core.slot_ledger import SlotLedger
        self.memory = SlotLedger(config.memory_chunks)
        self._rng = make_rng(derive_seed(config.seed, "server"))
        self._data_bearing = False
        #: Original sizes of provisioned volumes (for byte-exact join checks).
        self.volume_sizes: Dict[int, int] = {}

    # --------------------------------------------------------------- topology
    @property
    def spare_disk_ids(self) -> List[int]:
        return list(range(self.config.num_disks, self.config.num_disks + self.config.spares))

    def disk(self, disk_id: int) -> Disk:
        if not 0 <= disk_id < len(self.disks):
            raise ConfigurationError(f"no such disk {disk_id}")
        return self.disks[disk_id]

    def failed_disks(self) -> List[int]:
        return [d.disk_id for d in self.disks if d.is_failed]

    def slow_disks(self, threshold_ratio: float = 0.5) -> List[int]:
        """Ground-truth slow disks: bandwidth below ``ratio`` x median.

        This is the oracle view used by tests; algorithms learn slowness
        through :mod:`repro.hdss.prober` instead.
        """
        healthy = [d for d in self.disks if not d.is_failed]
        if not healthy:
            return []
        median = float(np.median([d.current_bandwidth for d in healthy]))
        return [d.disk_id for d in healthy if d.current_bandwidth < threshold_ratio * median]

    # ------------------------------------------------------------- provision
    def provision_stripes(self, num_stripes: int, with_data: bool = False) -> None:
        """Create ``num_stripes`` stripes (and optionally random chunk bytes).

        Metadata-only provisioning is O(s) and lets scheduling studies use
        disk-scale stripe counts; ``with_data=True`` RS-encodes random bytes
        so repairs can be verified byte-for-byte, and syncs the store once.
        """
        if len(self.layout) != 0:
            raise StorageError("server already provisioned")
        cfg = self.config
        if cfg.placement == "rotating":
            self.layout = rotating_placement(cfg.num_disks, num_stripes, cfg.n, cfg.k)
        else:
            self.layout = random_placement(
                cfg.num_disks, num_stripes, cfg.n, cfg.k,
                seed=derive_seed(cfg.seed, "placement"),
            )
        if with_data:
            self._data_bearing = True
            for stripe in self.layout:
                raw = self._rng.integers(0, 256, size=cfg.k * cfg.chunk_size, dtype=np.uint8)
                shards = self.code.encode(
                    [raw[i * cfg.chunk_size : (i + 1) * cfg.chunk_size] for i in range(cfg.k)]
                )
                self.volume_sizes[stripe.index] = raw.size
                for shard_idx, shard in enumerate(shards):
                    self.store.put(stripe.disks[shard_idx], ChunkId(stripe.index, shard_idx), shard)
            self.store.sync()

    def write_object(self, data: bytes) -> Stripe:
        """Append one object as a new stripe (split + encode + place).

        Returns the stripe record. Placement continues the configured
        strategy from the current stripe count.
        """
        cfg = self.config
        index = len(self.layout)
        if cfg.placement == "rotating":
            disks = tuple((index + j) % cfg.num_disks for j in range(cfg.n))
        else:
            disks = tuple(
                int(d) for d in self._rng.choice(cfg.num_disks, size=cfg.n, replace=False)
            )
        stripe = Stripe(index=index, n=cfg.n, k=cfg.k, disks=disks)
        shards = self.code.encode(self.code.split(data, chunk_size=cfg.chunk_size))
        self.layout.add(stripe)
        self.volume_sizes[index] = len(data)
        self._data_bearing = True
        for shard_idx, shard in enumerate(shards):
            self.store.put(disks[shard_idx], ChunkId(index, shard_idx), shard)
        self.store.sync()
        return stripe

    def read_object(self, stripe_index: int) -> bytes:
        """Read one object back, degraded reads included (decodes if needed)."""
        stripe = self.layout[stripe_index]
        size = self.volume_sizes.get(stripe_index)
        if size is None:
            raise StorageError(f"stripe {stripe_index} holds no object data")
        shards: List[Optional[np.ndarray]] = []
        for shard_idx, disk_id in enumerate(stripe.disks):
            cid = ChunkId(stripe_index, shard_idx)
            if self.disks[disk_id].is_failed or not self.store.contains(disk_id, cid):
                shards.append(None)
            else:
                shards.append(self.store.get(disk_id, cid))
        if any(s is None for s in shards[: stripe.k]):
            shards = self.code.reconstruct(shards, targets=[
                j for j in range(stripe.k) if shards[j] is None
            ])
        return self.code.join(shards[: stripe.k], size)

    # ---------------------------------------------------------------- failure
    def fail_disk(self, disk_id: int, destroy_data: bool = True) -> int:
        """Fail one disk; returns the number of chunks lost."""
        disk = self.disk(disk_id)
        if disk.is_failed:
            raise DiskFailedError(f"disk {disk_id} already failed")
        disk.fail()
        return self.store.drop_disk(disk_id) if destroy_data else 0

    def degrade_disk(self, disk_id: int, factor: float) -> None:
        """Slow one disk down by ``factor`` (models contention/aging)."""
        self.disk(disk_id).degrade(factor)

    def enclosure_disks(self, enclosure: int) -> List[int]:
        """Disk ids of one enclosure (regular and spare alike)."""
        size = self.config.enclosure_size
        if size is None:
            raise ConfigurationError("server has no enclosure_size configured")
        start = enclosure * size
        if start >= len(self.disks):
            raise ConfigurationError(f"no such enclosure {enclosure}")
        return list(range(start, min(start + size, len(self.disks))))

    # ------------------------------------------------------------ repair view
    def stripes_needing_repair(self, failed_disks: Sequence[int]) -> List[int]:
        """Deduplicated stripe indices touching any failed disk (§4.4)."""
        return self.layout.stripes_touching(failed_disks)

    def survivor_shards(
        self, stripe: Stripe, failed_disks: Sequence[int], select: str = "first"
    ) -> List[int]:
        """Pick the k survivor shard indices a repair will read.

        Policies:
            * ``"first"`` — lowest shard indices (deterministic, what a
              systematic decoder reads by default);
            * ``"fastest"`` — k survivors on the currently fastest disks
              (requires speed knowledge, i.e. an active scheme);
            * ``"random"`` — uniform among survivors.
        """
        survivors = stripe.surviving_shards(failed_disks)
        if len(survivors) < stripe.k:
            raise StorageError(
                f"stripe {stripe.index} has only {len(survivors)} survivors < k={stripe.k}"
            )
        if select == "first":
            return survivors[: stripe.k]
        if select == "fastest":
            ranked = sorted(
                survivors, key=lambda j: -self.disks[stripe.disks[j]].current_bandwidth
            )
            return sorted(ranked[: stripe.k])
        if select == "random":
            picked = self._rng.choice(survivors, size=stripe.k, replace=False)
            return sorted(int(j) for j in picked)
        raise ConfigurationError(f"unknown survivor selection {select!r}")

    def transfer_time_matrix(
        self,
        failed_disks: Sequence[int],
        select: str = "first",
        jittered: bool = True,
        stripes: Optional[Sequence[int]] = None,
    ) -> Tuple[List[int], List[List[int]], np.ndarray]:
        """Build the ``L_{s×k}`` matrix for a recovery (§4.1, Table 1).

        Returns ``(stripe_indices, survivor_ids, L)`` where row i of the
        float64 matrix ``L`` holds the transfer times of the k chosen
        survivor chunks of stripe ``stripe_indices[i]``, and
        ``survivor_ids[i]`` their shard indices (same column order).
        ``stripes`` restricts the rows (default: every stripe touching a
        failed disk); survivors never sit on a failed disk either way.
        """
        stripe_indices = (
            list(stripes) if stripes is not None
            else self.stripes_needing_repair(failed_disks)
        )
        survivor_ids: List[List[int]] = []
        rows: List[List[float]] = []
        size = self.config.chunk_size
        for si in stripe_indices:
            stripe = self.layout[si]
            shard_ids = self.survivor_shards(stripe, failed_disks, select=select)
            survivor_ids.append(shard_ids)
            rows.append(
                [self.disks[stripe.disks[j]].transfer_time(size, jittered=jittered) for j in shard_ids]
            )
        L = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, self.config.k))
        return stripe_indices, survivor_ids, L

    def commit_writebacks(self, writebacks: Sequence[Tuple[int, int, int]]) -> int:
        """Remap repaired shards to their spare disks (placement commit).

        ``writebacks`` are the ``(stripe_index, shard_index, spare_disk)``
        records a repair job produced (``DataPathStats.writebacks``).
        After committing, the layout references the spares, so degraded
        reads and scrubs see a fully healthy stripe again.

        Returns the number of shards remapped.
        """
        count = 0
        for (stripe_index, shard_index, spare) in writebacks:
            self.layout.remap_shard(stripe_index, shard_index, spare)
            count += 1
        return count

    def scrub(self, stripe_indices: Optional[Sequence[int]] = None) -> "ScrubReport":
        """Verify parity consistency of stored stripes (background scrub).

        For every selected data-bearing stripe, read whatever chunks are
        reachable and check that parity matches a re-encode of the data
        shards. Stripes with unreadable chunks (failed disks / dropped
        data) are reported as *degraded*; stripes whose bytes disagree are
        *corrupt* — the silent-data-corruption case scrubbing exists for.
        """
        indices = list(stripe_indices) if stripe_indices is not None else [
            s.index for s in self.layout
        ]
        report = ScrubReport()
        for si in indices:
            stripe = self.layout[si]
            shards: List[Optional[np.ndarray]] = []
            degraded = False
            for shard_idx, disk_id in enumerate(stripe.disks):
                cid = ChunkId(si, shard_idx)
                if self.disks[disk_id].is_failed or not self.store.contains(disk_id, cid):
                    shards.append(None)
                    degraded = True
                else:
                    try:
                        shards.append(self.store.get(disk_id, cid))
                    except LatentSectorError:
                        # an unreadable sector is a missing shard, not a
                        # scrub crash — the stripe is degraded
                        shards.append(None)
                        degraded = True
            if all(s is None for s in shards):
                report.unpopulated.append(si)
                continue
            if degraded:
                report.degraded.append(si)
                continue
            if self.code.verify(shards):
                report.clean.append(si)
            else:
                report.corrupt.append(si)
        return report

    def pick_spare(self, exclude: Sequence[int] = ()) -> int:
        """Choose a healthy spare disk for write-back (round robin)."""
        for disk_id in self.spare_disk_ids:
            if not self.disks[disk_id].is_failed and disk_id not in exclude:
                return disk_id
        raise StorageError("no healthy spare disk available")

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"HighDensityStorageServer(disks={cfg.num_disks}+{cfg.spares} spares, "
            f"RS({cfg.n},{cfg.k}), chunk={cfg.chunk_size // MiB} MiB, "
            f"c={cfg.memory_chunks}, stripes={len(self.layout)})"
        )


def attach_server(
    shared: ChunkStore,
    build: Callable[[ChunkStore], HighDensityStorageServer],
) -> HighDensityStorageServer:
    """A joining daemon's view of an already provisioned ``shared`` store.

    Provisioning writes data, and re-writing it into a live store would
    resurrect chunks a peer already failed. So the newcomer runs ``build``
    (whatever provisions its server) over a throwaway in-memory store —
    same seed => identical layout, spares and volume sizes — and is then
    pointed at the shared one.
    """
    server = build(InMemoryChunkStore())
    server.store = shared
    return server
