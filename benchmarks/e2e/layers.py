"""Direct per-layer timings: each layer's public function, called alone.

Run in the client process on buffers of the workload's shape, these say
what a layer costs with nothing contending — the ceiling on what speeding
it up can give back. Each number is the median over ``repeats`` windows of
at least ``window`` seconds; units are BENCHMARK.json's. A layer whose
function no longer exists is reported on stderr and left out (its metric
then reads 0).
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from workloads import K, N, NUM_DISKS, Shape


def _seconds_per_call(fn: Callable[[], object], window: float, repeats: int) -> float:
    fn()  # warm: lazy tables, first-touch pages
    rates = []
    for _ in range(repeats):
        calls, start = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= window:
                break
        rates.append(elapsed / calls)
    return statistics.median(rates)


def measure(
    shape: Shape, seed: int, scratch: Path, window: float = 0.1, repeats: int = 3,
) -> Dict[str, float]:
    """``{metric: value}`` for the shape's chunk size."""
    size = shape.chunk_size
    mb = size / 1e6
    rng = np.random.default_rng(seed)
    shards = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(K)]
    payload = shards[0].tobytes()
    out: Dict[str, float] = {}

    def timed(fn: Callable[[], object]) -> float:
        return _seconds_per_call(fn, window, repeats)

    def layer(build: Callable[[], None]) -> None:
        try:
            build()
        except (ImportError, AttributeError, TypeError) as exc:
            print(f"layers: skipped {build.__name__}: {exc!r}", file=sys.stderr)

    def checksum():
        from repro.utils.checksum import crc32c

        out["checksum.crc32c_mbps"] = mb / timed(lambda: crc32c(payload))

    def gf():
        from repro.gf import gf_mul_add_scalar

        acc = np.zeros(size, dtype=np.uint8)
        out["gf.mul_add_mbps"] = mb / timed(lambda: gf_mul_add_scalar(acc, 0x57, shards[1]))

    def ec():
        from repro.ec.encoder import RSCode
        from repro.ec.partial import PartialDecoder

        code = RSCode(N, K)
        coded = code.encode(shards)
        survivors = list(range(1, K + 1))
        fed = {s: coded[s] for s in survivors}

        def decode():
            decoder = PartialDecoder(code, survivors, [0], chunk_size=size)
            decoder.feed(fed)
            return decoder.results()

        # MB of lost data rebuilt per second by the decode alone.
        out["ec.partial_decode_mbps"] = mb / timed(decode)
        out["ec.encode_mbps"] = K * mb / timed(lambda: code.encode(shards))

    def store():
        from repro.ec.stripe import ChunkId
        from repro.hdss.store import FileChunkStore

        fs = FileChunkStore(scratch / "layer-store", durable=True)
        cid = ChunkId(0, 0)
        out["store.put_ms"] = timed(lambda: fs.put(0, cid, shards[0])) * 1e3
        out["store.get_ms"] = timed(lambda: fs.get(0, cid)) * 1e3
        out["store.verify_ms"] = timed(lambda: fs.verify_chunk(0, cid)) * 1e3

    def journal():
        from repro.ec.encoder import RSCode
        from repro.ec.partial import PartialDecoder
        from repro.journal.journal import RepairJournal

        code = RSCode(N, K)
        decoder = PartialDecoder(code, list(range(1, K + 1)), [0], chunk_size=size)
        decoder.feed({1: shards[1], 2: shards[2]})
        state = decoder.to_state()
        with RepairJournal(scratch / "layer-journal", durable=True) as jrnl:
            out["journal.round_commit_ms"] = timed(lambda: jrnl.round_commit(0, 0.0, state)) * 1e3

    def admission():
        from repro.service.admission import DiskGate

        async def acquire(rounds: int = 200) -> None:
            gate = DiskGate(2)
            for _ in range(rounds):
                async with gate.read(0, foreground=True):
                    pass

        out["admission.gate_acquire_us"] = timed(lambda: asyncio.run(acquire())) / 200 * 1e6

    def protocol():
        from repro.service import protocol as p

        def encode() -> bytes:
            return p.encode_message(p.ok(data_b64=p.pack_bytes(payload)))

        frame = encode()
        out["protocol.reply_encode_us"] = timed(encode) * 1e6
        out["protocol.reply_decode_us"] = timed(lambda: p.unpack_bytes(p.decode_message(frame)["data_b64"])) * 1e6
        out["protocol.wire_bytes_per_payload_byte"] = len(frame) / size

    def core():
        from repro.core import ALGORITHMS
        from repro.workloads import build_exp_server

        server = build_exp_server(
            n=N, k=K, disk_size=shape.disk_size, chunk_size=size,
            num_disks=NUM_DISKS, seed=seed, placement="rotating",
        )
        server.fail_disk(0)
        _, _, L = server.transfer_time_matrix([0], jittered=False)
        algorithm = ALGORITHMS["hd-psr-ap"]()
        out["core.plan_ms"] = timed(lambda: algorithm.build_plan(L, server.config.memory_chunks)) * 1e3

    for build in (checksum, gf, ec, store, journal, admission, protocol, core):
        layer(build)
    return out

