#!/usr/bin/env python3
"""Checksum-corruption smoke: a flipped bit in a survivor chunk must be
caught by the repair's read, replanned around and read-repaired — the
stripe ``replanned`` in the DataLossReport, nothing lost, and the chunk its
original bytes again when ``recover_disk`` returns — never an unhandled
exception.

    tools/smoke_checksum_corruption.py [STORE_DIR]

CI calls this script and ``tests/test_hdss_store.py`` imports
:func:`run`, so the two cannot disagree about what the smoke checks.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core import FullStripeRepair, ReadPolicy, recover_disk
from repro.ec.stripe import ChunkId
from repro.faults.report import REPLANNED
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.store import FileChunkStore


def run(root: Path) -> dict:
    """Corrupt one survivor of a failed disk's first stripe under ``root``,
    recover the disk, check the survivor was read-repaired, and return the
    loss summary."""
    cfg = HDSSConfig(num_disks=12, n=9, k=6, chunk_size=4096,
                     memory_chunks=12, spares=3, seed=7)
    server = HighDensityStorageServer(cfg, store=FileChunkStore(root))
    server.provision_stripes(10, with_data=True)
    server.fail_disk(0)
    si = server.layout.stripe_set(0)[0]
    stripe = server.layout[si]
    shard = next(j for j, d in enumerate(stripe.disks) if d != 0)
    disk, cid = stripe.disks[shard], ChunkId(si, shard)
    original = server.store.get(disk, cid)
    path = root / f"disk-{disk:03d}" / f"s{si:06d}.{shard:03d}.chunk"
    data = bytearray(path.read_bytes())
    data[0] ^= 0x80
    path.write_bytes(bytes(data))
    result = recover_disk(server, FullStripeRepair(), 0, policy=ReadPolicy())
    assert result.loss.checksum_failures >= 1, result.loss.summary()
    assert not result.loss.has_loss, result.loss.summary()
    assert result.loss.stripes[si] == REPLANNED, result.loss.stripes
    # The read that caught it quarantined the survivor and rewrote it.
    server.store.verify_chunk(disk, cid)
    assert (server.store.get(disk, cid) == original).all()
    full = server.scrub([si])
    assert full.clean == [si] and full.healthy, full
    return result.loss.summary()


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "chunks-smoke")
    print("corruption detected and replanned around:", run(root))
