"""Differential test: the two drivers of the one StripeRepair core agree.

Two identically seeded servers get the same *state-based* faults up front
(an extra failed disk, latent-bad chunks, permanently degraded disks — not
time-triggered events: the sequential executor's serial clock and the
service's per-disk channels differ by design, so a timed fault would land
at different points of the two runs). ``recover_disk`` repairs one,
``RepairService`` the other, under the same ``ReadPolicy``; every stripe
must end in the same outcome and every rebuilt chunk must be the original
bytes on both.
"""

import asyncio

import numpy as np

from repro.core import ALGORITHMS, ReadPolicy, recover_disk
from repro.ec.stripe import ChunkId
from repro.faults.report import LOST, RECOVERED, REPLANNED
from repro.hdss.server import HDSSConfig, HighDensityStorageServer
from repro.hdss.store import FaultyChunkStore, InMemoryChunkStore
from repro.service import RepairService, ServiceConfig

SEEDS = range(24)
FAILED = 0


def make_server(seed):
    config = HDSSConfig(
        num_disks=12, n=5, k=3, chunk_size=512, memory_chunks=16,
        spares=4, seed=seed, placement="rotating",
    )
    server = HighDensityStorageServer(
        config, store=FaultyChunkStore(InMemoryChunkStore())
    )
    server.provision_stripes(12, with_data=True)
    return server


def apply_faults(server, seed):
    """Fail the disk under repair, then break survivors at random."""
    rng = np.random.default_rng(seed)
    server.fail_disk(FAILED)
    if rng.random() < 0.4:
        server.fail_disk(int(rng.integers(1, 12)))
    failed = server.failed_disks()
    survivors = [
        (stripe.disks[shard], ChunkId(si, shard))
        for si in server.layout.stripe_set(FAILED)
        for stripe in [server.layout[si]]
        for shard in stripe.surviving_shards(failed)
    ]
    for pick in rng.choice(len(survivors), size=int(rng.integers(0, 5)), replace=False):
        server.store.mark_bad(*survivors[int(pick)])
    healthy = [d for d in range(1, 12) if d not in failed]
    for disk in rng.choice(healthy, size=int(rng.integers(0, 3)), replace=False):
        server.degrade_disk(int(disk), 100.0)


def snapshot(server):
    return {
        (si, shard): server.store.get(disk, ChunkId(si, shard))
        for si in range(len(server.layout))
        for shard, disk in enumerate(server.layout[si].disks)
    }


def rebuilt_chunks(server, lost):
    """(stripe, shard) -> bytes now at the remapped home of each lost shard."""
    return {
        (si, shard): server.store.get(
            server.layout[si].disks[shard], ChunkId(si, shard)
        )
        for si, shard in lost
    }


def run_service(server, policy, algorithm):
    async def run():
        service = RepairService(
            server, ALGORITHMS[algorithm](), ServiceConfig(policy=policy)
        )
        result = await service.submit_repair(FAILED).wait()
        await service.close()
        return result

    return asyncio.run(run())


def comparable(outcomes, policy):
    """The part of an outcome map that does not depend on read order.

    A dead shard always costs a re-plan, and a stripe is lost exactly when
    fewer than k shards are readable — the same on both drivers. Whether a
    *hedge* finds a feasible salvage depends on what the round had already
    fed when the slow read gave up: the sequential driver stops at the
    first fault, the service has the whole round in flight. That difference
    is kept by design, so under hedging only lost / rebuilt must agree.
    """
    if not policy.hedge:
        return outcomes
    return {si: LOST if o == LOST else "rebuilt" for si, o in outcomes.items()}


def test_executor_and_service_agree_on_every_stripe():
    seen = set()
    for seed in SEEDS:
        # single-round plans (fsr) and multi-round ones, each with and
        # without hedging
        algorithm = ("hd-psr-ap", "fsr")[seed // 2 % 2]
        sync_server, async_server = make_server(seed), make_server(seed)
        originals = snapshot(sync_server)
        healthy_read = sync_server.disk(FAILED).transfer_time(512, jittered=False)
        policy = ReadPolicy(
            timeout_seconds=2 * healthy_read, max_retries=1, hedge=seed % 2 == 1
        )
        apply_faults(sync_server, seed)
        apply_faults(async_server, seed)
        failed = sync_server.failed_disks()
        assert failed == async_server.failed_disks()
        lost_shards = {
            si: sync_server.layout[si].lost_shards(failed)
            for si in sync_server.layout.stripe_set(FAILED)
        }

        sync = recover_disk(
            sync_server, ALGORITHMS[algorithm](), FAILED, policy=policy
        )
        service = run_service(async_server, policy, algorithm)

        # The service repairs the failed disk's stripe set; recover_disk
        # also takes the stripes only the extra failed disk touches.
        stripes = sorted(service.loss.stripes)
        assert stripes == sorted(lost_shards)
        sync_outcomes = {si: sync.loss.stripes[si] for si in stripes}
        assert comparable(sync_outcomes, policy) == comparable(
            service.loss.stripes, policy
        ), f"seed {seed}: outcome maps differ"
        seen |= set(service.loss.stripes.values())

        rebuilt = [
            (si, shard)
            for si in stripes if service.loss.stripes[si] != LOST
            for shard in lost_shards[si]
        ]
        sync_bytes = rebuilt_chunks(sync_server, rebuilt)
        async_bytes = rebuilt_chunks(async_server, rebuilt)
        for key, want in sync_bytes.items():
            assert np.array_equal(want, originals[key]), f"seed {seed}: {key}"
            assert np.array_equal(async_bytes[key], want), f"seed {seed}: {key}"

    # the fault mix is not vacuous: every rung of the ladder was compared
    assert seen == {RECOVERED, REPLANNED, LOST}
