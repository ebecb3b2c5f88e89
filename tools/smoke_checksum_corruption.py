#!/usr/bin/env python3
"""Checksum-corruption smoke: a flipped bit in a survivor chunk must surface
as a degraded stripe in the DataLossReport (and an uncertified repair), never
as an unhandled exception.

    tools/smoke_checksum_corruption.py [STORE_DIR]

CI calls this script and ``tests/test_hdss_store.py`` imports
:func:`run`, so the two cannot disagree about what the smoke checks.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core import FullStripeRepair, recover_disk
from repro.core.executor import ReadPolicy
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.store import FileChunkStore


def run(root: Path) -> dict:
    """Corrupt one survivor of a failed disk's first stripe under ``root``,
    recover the disk, and return the loss summary."""
    cfg = HDSSConfig(num_disks=12, n=9, k=6, chunk_size=4096,
                     memory_chunks=12, spares=3, seed=7)
    server = HighDensityStorageServer(cfg, store=FileChunkStore(root))
    server.provision_stripes(10, with_data=True)
    server.fail_disk(0)
    si = server.layout.stripe_set(0)[0]
    stripe = server.layout[si]
    shard = next(j for j, d in enumerate(stripe.disks) if d != 0)
    path = (root / f"disk-{stripe.disks[shard]:03d}"
            / f"s{si:06d}.{shard:03d}.chunk")
    data = bytearray(path.read_bytes())
    data[0] ^= 0x80
    path.write_bytes(bytes(data))
    result = recover_disk(server, FullStripeRepair(), 0, policy=ReadPolicy())
    assert result.loss.checksum_failures >= 1, result.loss.summary()
    assert not result.loss.has_loss, result.loss.summary()
    # The corrupt survivor is still on disk: its stripe must not certify.
    assert result.scrub.degraded == [si] and not result.certified, result.scrub
    return result.loss.summary()


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "chunks-smoke")
    print("corruption detected and replanned around:", run(root))
