#!/usr/bin/env python
"""Byte-exact recovery on a real filesystem store.

Mirrors the paper's deployment layout — one directory per disk, one file
per chunk — and walks the full durability story end to end:

1. write objects through the (9, 6) RS encoder into per-disk directories;
2. fail a disk (its chunk files are destroyed);
3. serve degraded reads while the disk is down;
4. repair with HD-PSR-AS through the bounded c-chunk repair memory,
   feeding partial stripe rounds into the incremental decoder;
5. commit the placement remap, then verify every stripe with a full
   scrub and every object end to end.

Run:  python examples/filestore_durability.py [workdir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    ActiveSlowerFirstRepair,
    FileChunkStore,
    HDSSConfig,
    HighDensityStorageServer,
    recover_disk,
)
from repro.utils import AsciiTable, format_bytes


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="hdpsr-"))
    print(f"Chunk files under: {workdir}\n")

    config = HDSSConfig(
        num_disks=12,
        n=9,
        k=6,
        chunk_size="256KiB",
        memory_chunks=12,
        spares=3,
        seed=99,
    )
    server = HighDensityStorageServer(config, store=FileChunkStore(workdir))

    # 1. write objects
    rng = np.random.default_rng(0)
    objects = {}
    for i in range(10):
        data = rng.integers(0, 256, size=int(rng.integers(100_000, 1_400_000)),
                            dtype=np.uint8).tobytes()
        stripe = server.write_object(data)
        objects[stripe.index] = data
    total = sum(len(d) for d in objects.values())
    print(f"Wrote {len(objects)} objects, {format_bytes(total)} of user data "
          f"as {len(server.layout)} RS({config.n},{config.k}) stripes.")

    # 2. fail the busiest disk
    victim = max(range(config.num_disks), key=lambda d: len(server.layout.stripe_set(d)))
    lost_chunks = server.store.chunks_on_disk(victim)
    server.fail_disk(victim)
    print(f"Disk {victim} failed; {len(lost_chunks)} chunk files destroyed.")

    # 3. degraded reads still serve every object
    for idx, data in objects.items():
        assert server.read_object(idx) == data
    print("Degraded reads: all objects still readable (decode on the fly).")

    # 4. repair through the bounded memory; recover_disk also commits the
    #    placement remap and certifies what it rebuilt
    result = recover_disk(server, ActiveSlowerFirstRepair(), victim)
    stats = result.data_path

    table = AsciiTable(["metric", "value"], title="Repair data path")
    table.add_row(["stripes repaired", stats.stripes_repaired])
    table.add_row(["chunks read", stats.chunks_read])
    table.add_row(["data read", format_bytes(stats.bytes_read)])
    table.add_row(["chunks rebuilt", stats.chunks_rebuilt])
    table.add_row(["data written to spares", format_bytes(stats.bytes_written)])
    table.add_row(["peak repair memory (chunks)", stats.peak_memory_chunks])
    table.add_row(["memory capacity c (chunks)", config.memory_chunks])
    print()
    print(table.render())

    # 5. check the remap and certify every stripe with a full scrub
    assert stats.chunks_rebuilt == len(lost_chunks)
    assert stats.peak_memory_chunks <= config.memory_chunks
    assert result.certified
    remapped = result.remapped
    scrub = server.scrub()
    assert scrub.healthy, (scrub.degraded, scrub.corrupt)
    for idx, data in objects.items():
        assert server.read_object(idx) == data
    print(f"\nRecovery certified: {remapped} shards remapped to spare disks "
          f"{sorted({w[2] for w in stats.writebacks})}; post-repair scrub "
          f"found {len(scrub.clean)} clean stripes, 0 degraded, 0 corrupt. "
          "All objects verified byte-for-byte.")


if __name__ == "__main__":
    main()
