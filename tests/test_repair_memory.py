"""``--memory`` means one thing at run time: the drivers over ``server.memory``.

The geometry is the e2e benchmark's — RS(9,6), ``c = 12`` — on a seed where
HD-PSR-AP plans ``P_a = 2`` (three rounds of two chunks per stripe).
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import cli
from repro.core import ALGORITHMS, ReadPolicy, recover_disk
from repro.ec.stripe import ChunkId
from repro.errors import LatentSectorError, StorageError
from repro.faults import FaultEvent, FaultSchedule, SimulatedCrash
from repro.faults.report import REPLANNED
from repro.hdss.store import FaultyChunkStore, ForwardingChunkStore, InMemoryChunkStore
from repro.service import RepairService, ServiceConfig
from repro.service.chaos_rig import PacedStore, check_memory_released
from repro.workloads import build_exp_server

K, C, FAILED = 6, 12, 0


def make_server(store=None):
    """The server with disk 0 failed, and what was on that disk."""
    server = build_exp_server(
        n=9, k=K, disk_size="12KiB", chunk_size="1KiB", num_disks=14,
        memory_chunks=C, ros=0.2, slow_factor=4.0, seed=2,
        placement="rotating", with_data=True, store=store,
    )
    originals = {
        cid: server.store.get(FAILED, cid)
        for cid in server.store.chunks_on_disk(FAILED)
    }
    server.fail_disk(FAILED)
    return server, originals


class TestSyncRepairGivesMemoryBack:
    """A sequential repair that dies mid-stripe used to leave its
    accumulator slot behind, and the next repair on that server refused to
    start ("repair memory is not empty")."""

    def test_plain_error_then_hardened_retry(self):
        server, originals = make_server(FaultyChunkStore(InMemoryChunkStore()))
        si = server.layout.stripe_set(FAILED)[1]
        stripe = server.layout[si]
        shard = stripe.surviving_shards([FAILED])[2]
        server.store.mark_bad(stripe.disks[shard], ChunkId(si, shard))

        with pytest.raises(LatentSectorError):
            recover_disk(server, ALGORITHMS["hd-psr-ap"](), FAILED)
        assert server.memory.in_use == 0

        retry = recover_disk(
            server, ALGORITHMS["hd-psr-ap"](), FAILED,
            policy=ReadPolicy(timeout_seconds=1.0),
        )
        assert not retry.loss.has_loss
        assert retry.loss.stripes[si] == REPLANNED
        assert server.memory.in_use == 0
        for cid, want in originals.items():
            home = server.layout[cid.stripe_index].disks[cid.shard_index]
            assert np.array_equal(server.store.get(home, cid), want)

    def test_crash_then_resume_on_the_same_server(self, tmp_path):
        server, _ = make_server()
        read = server.disk(1).transfer_time(1024, jittered=False)
        crash = FaultSchedule([FaultEvent(at=9.5 * read, kind="process_crash")])
        with pytest.raises(SimulatedCrash):
            recover_disk(
                server, ALGORITHMS["hd-psr-ap"](), FAILED, faults=crash,
                journal=tmp_path / "j",
            )
        assert server.memory.in_use == 0
        resumed = recover_disk(
            server, ALGORITHMS["hd-psr-ap"](), FAILED, faults=crash,
            journal=tmp_path / "j", resume=True,
        )
        assert resumed.certified
        assert server.memory.in_use == 0

    def test_the_guard_stays(self):
        server, _ = make_server()
        assert server.memory.try_acquire(1)  # someone else's round
        with pytest.raises(StorageError, match="not empty"):
            recover_disk(server, ALGORITHMS["fsr"](), FAILED)


class StripesReading(ForwardingChunkStore):
    """Counts the distinct stripes with a survivor read inside the store at
    once — every one of them is mid-round."""

    def __init__(self, inner):
        super().__init__(inner)
        self._lock = threading.Lock()
        self._reading = {}
        self.most_stripes = 0

    def get(self, disk_id, chunk_id):
        si = chunk_id.stripe_index
        with self._lock:
            self._reading[si] = self._reading.get(si, 0) + 1
            self.most_stripes = max(self.most_stripes, len(self._reading))
        try:
            return self.inner.get(disk_id, chunk_id)
        finally:
            with self._lock:
                self._reading[si] -= 1
                if not self._reading[si]:
                    del self._reading[si]


def serve_repair(algorithm):
    """One repair through ``RepairService`` with four stripes allowed in
    flight; returns (service, the plan's round widths, the store)."""
    # 2 ms a read, so concurrent stripes' rounds really overlap in the store.
    store = StripesReading(PacedStore(InMemoryChunkStore(), latency_s=0.002))
    server, _ = make_server(store)

    async def run():
        # Enough threads for four stripes' reads at once: whatever bounds
        # the overlap seen in the store, it is not the pool.
        asyncio.get_running_loop().set_default_executor(ThreadPoolExecutor(32))
        service = RepairService(
            server, ALGORITHMS[algorithm](), ServiceConfig(max_concurrent_stripes=4)
        )
        ticket = service.submit_repair(FAILED)
        result = await ticket.wait()
        await service.close()
        assert result.certified
        plan = service._jobs[ticket.job_id].plan
        return service, {len(r) for sp in plan.stripe_plans for r in sp.rounds}

    service, widths = asyncio.run(run())
    return service, widths, store


class TestTheDaemonHonoursMemory:
    """The paper's mechanism where the bytes are real: with ``c = 12`` FSR's
    six-chunk rounds let two stripes progress at once, HD-PSR's two-chunk
    rounds let all four — the semaphore alone used to give both four."""

    def test_fsr_monopolises_the_memory(self):
        service, widths, store = serve_repair("fsr")
        memory = service.server.memory
        assert widths == {K}
        assert memory.peak == C
        assert memory.waits > 0
        assert 1 <= store.most_stripes <= C // K
        assert check_memory_released(service) is None

    def test_hd_psr_ap_never_waits(self):
        service, widths, _ = serve_repair("hd-psr-ap")
        memory = service.server.memory
        assert widths == {2}, "pick a seed where AP plans P_a = 2"
        assert memory.peak == 4 * 2  # max_concurrent_stripes x P_a
        assert memory.waits == 0
        assert check_memory_released(service) is None

    def test_stats_carry_the_memory_section(self):
        from repro.service.telemetry import stats_snapshot

        service, _, _ = serve_repair("hd-psr-ap")
        assert stats_snapshot(service)["memory"] == {
            "capacity": C, "in_use": 0, "peak": 8, "waiting": 0,
        }


@pytest.mark.parametrize("command", [
    ["serve", "--memory", "3"],
    ["repair", "--memory", "3", "--disk-size", "64MiB"],
])
def test_impossible_memory_is_a_usage_error(command, capsys):
    assert cli.main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith("hdpsr: error: memory_chunks=3 cannot hold")
    assert "Traceback" not in err
