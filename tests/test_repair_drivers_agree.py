"""Differential test: the two drivers of the one StripeRepair core agree.

Two identically seeded servers get the same *state-based* faults up front
(an extra failed disk, latent-bad chunks, permanently degraded disks).
``recover_disk`` repairs one, ``RepairService`` the other, under the same
``ReadPolicy``; every stripe must end in the same outcome and every rebuilt
chunk must be the original bytes on both.

Both drivers price every survivor read on one serial
:class:`~repro.core.stripe_repair.ReadClock`, so a *timed* fault lands at
the same read of the two runs: the timed variant kills a survivor disk at a
seed-chosen read ordinal, with the service one stripe at a time, and holds
the two to the same outcome map.

The crash→resume variant journals both runs, cuts both journals after the
same number of ``stripe_done`` records, and resumes each on a fresh server:
what the one :class:`~repro.core.repair_job.RepairJob` replays, re-puts and
records must not depend on which driver performs it.

Every run is also held to the full-stripe parity proof
(:func:`~repro.service.chaos_rig.check_parity_clean`): what a job certified
clean from what it had in hand must scrub clean shard by shard, and what it
called degraded the scrub must call degraded too. And every run must give
the repair memory back (:func:`~repro.service.chaos_rig.check_memory_released`).
"""

import asyncio
from collections import Counter

import numpy as np

from repro.core import ALGORITHMS, ReadPolicy, recover_disk
from repro.ec.stripe import ChunkId
from repro.faults.report import LOST, RECOVERED, REPLANNED
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.hdss.server import HDSSConfig, HighDensityStorageServer
from repro.hdss.store import FaultyChunkStore, InMemoryChunkStore
from repro.journal.wal import WALReader, WALWriter
from repro.service import RepairService, ServiceConfig
from repro.service.chaos_rig import check_memory_released, check_parity_clean

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


def apply_faults(server, seed, second_failure=True):
    """Fail the disk under repair, then break survivors at random."""
    rng = np.random.default_rng(seed)
    server.fail_disk(FAILED)
    if rng.random() < 0.4 and second_failure:
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


def run_service(server, policy, algorithm, **config):
    resume = config.pop("resume", False)
    faults = config.pop("faults", None)

    async def run():
        service = RepairService(
            server, ALGORITHMS[algorithm](), ServiceConfig(policy=policy, **config),
            faults=faults,
        )
        result = await service.submit_repair(FAILED, resume=resume).wait()
        await service.close()
        assert check_memory_released(service) is None
        return result

    return asyncio.run(run())


def assert_certification_holds(server, result, seed):
    """The in-hand certification against the parity scrub it replaced."""
    failure = check_parity_clean(server, result.scrub.clean)
    assert failure is None, f"seed {seed}: {failure}"
    assert server.memory.in_use == 0, f"seed {seed}: {server.memory!r}"
    assert not result.scrub.corrupt and not result.scrub.unpopulated
    full = server.scrub(result.scrub.degraded)
    assert full.degraded == result.scrub.degraded, f"seed {seed}: {full}"
    assert set(result.scrub.clean) | set(result.scrub.degraded) == {
        si for si, outcome in result.loss.stripes.items() if outcome != LOST
    }


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
    seen, certified = set(), set()
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
        assert_certification_holds(sync_server, sync, seed)
        assert_certification_holds(async_server, service, seed)
        certified |= {sync.certified, service.certified}

    # the fault mix is not vacuous: every rung of the ladder was compared,
    # and certification said both yes and no
    assert seen == {RECOVERED, REPLANNED, LOST}
    assert certified == {True, False}


def cut_journal(source, dest, stripes_done):
    """Copy ``source`` up to and including its N-th ``stripe_done`` record —
    what a crash right after that commit leaves behind."""
    writer = WALWriter(dest, durable=False)
    for record in WALReader(source):
        writer.append(record)
        stripes_done -= record.type == "stripe_done"
        if not stripes_done:
            break
    writer.commit()
    writer.close()


def record_types(journal, faulted):
    """Multiset of record types — the same for both drivers whether or not
    a read ``faulted``: neither journals a round."""
    types = Counter(record.type for record in WALReader(journal))
    assert "round_commit" not in types
    return types


def test_executor_and_service_agree_after_crash_and_resume(tmp_path):
    replayed = clean = 0
    for seed in SEEDS:
        algorithm = ("hd-psr-ap", "fsr")[seed // 2 % 2]
        pristine = make_server(seed)
        originals = snapshot(pristine)
        healthy_read = pristine.disk(FAILED).transfer_time(512, jittered=False)
        policy = ReadPolicy(
            timeout_seconds=2 * healthy_read, max_retries=1, hedge=seed % 2 == 1
        )

        def faulted():
            # No second failed disk: both drivers then cover the same
            # stripes, so their journals are comparable record for record.
            server = make_server(seed)
            apply_faults(server, seed, second_failure=False)
            return server

        lost_shards = {
            si: pristine.layout[si].lost_shards([FAILED])
            for si in pristine.layout.stripe_set(FAILED)
        }
        cut = 1 + seed % 3
        sync_root, async_root = tmp_path / f"sync-{seed}", tmp_path / f"async-{seed}"

        # First incarnations, journaled; one stripe at a time in the
        # service so both journals list stripes in the plan's order.
        recover_disk(
            faulted(), ALGORITHMS[algorithm](), FAILED, policy=policy,
            journal=sync_root / "full",
        )
        run_service(
            faulted(), policy, algorithm, journal_root=async_root / "full",
            durable_journal=False, max_concurrent_stripes=1,
        )
        cut_journal(sync_root / "full", sync_root / "cut", cut)
        cut_journal(
            async_root / "full" / "disk-000", async_root / "cut" / "disk-000", cut
        )

        # Second incarnations: fresh servers (the volatile store lost the
        # rebuilt chunks), each resuming its own driver's journal.
        sync_server, async_server = faulted(), faulted()
        sync = recover_disk(
            sync_server, ALGORITHMS[algorithm](), FAILED, policy=policy,
            journal=sync_root / "cut", resume=True,
        )
        service = run_service(
            async_server, policy, algorithm, journal_root=async_root / "cut",
            durable_journal=False, resume=True,
        )

        assert comparable(sync.loss.stripes, policy) == comparable(
            service.loss.stripes, policy
        ), f"seed {seed}: outcome maps differ"
        assert sync.loss.resumed_stripes == service.loss.resumed_stripes == cut
        assert service.resumed_stripes == cut
        assert sync.loss.replayed_chunks == service.loss.replayed_chunks, (
            f"seed {seed}: replayed_chunks differ"
        )
        replayed += service.loss.replayed_chunks
        faulted_reads = any(
            loss.degraded or loss.timeouts for loss in (sync.loss, service.loss)
        )
        clean += not faulted_reads
        assert record_types(sync_root / "cut", faulted_reads) == record_types(
            async_root / "cut" / "disk-000", faulted_reads
        ), f"seed {seed}: journals differ in record types"

        rebuilt = [
            (si, shard)
            for si, outcome in service.loss.stripes.items() if outcome != LOST
            for shard in lost_shards[si]
        ]
        sync_bytes = rebuilt_chunks(sync_server, rebuilt)
        async_bytes = rebuilt_chunks(async_server, rebuilt)
        for key, want in sync_bytes.items():
            assert np.array_equal(want, originals[key]), f"seed {seed}: {key}"
            assert np.array_equal(async_bytes[key], want), f"seed {seed}: {key}"
        assert_certification_holds(sync_server, sync, seed)
        assert_certification_holds(async_server, service, seed)

    # the replay path and the full record multiset were compared, not skipped
    assert replayed and clean


def test_executor_and_service_agree_under_a_timed_fault():
    """One survivor disk dies at a seed-chosen read: both drivers price
    reads on the same serial clock, so the fault lands at the same read.

    The read is a stripe's first: one stripe at a time, each reading ``k``
    chunks, read ``k * s`` opens stripe ``s`` in both drivers. Mid-round
    the drivers differ by design, as under hedging: the sequential driver
    already holds the round's earlier reads, the service has them in
    flight, so a victim read earlier in the same round is fed on one and
    re-planned around on the other.
    """
    seen = set()
    for seed in SEEDS:
        algorithm = ("hd-psr-ap", "fsr")[seed // 2 % 2]
        rng = np.random.default_rng(seed)
        pristine = make_server(seed)
        originals = snapshot(pristine)
        stripes = pristine.layout.stripe_set(FAILED)
        survivors = sorted(
            {d for si in stripes for d in pristine.layout[si].disks} - {FAILED}
        )
        victim = int(rng.choice(survivors))
        # Fires as read k * s is priced: stripe s's first, never stripe 0's.
        ordinal = pristine.config.k * int(rng.integers(1, len(stripes))) - 1
        healthy_read = pristine.disk(FAILED).transfer_time(512, jittered=False)
        schedule = FaultSchedule([FaultEvent(
            at=(ordinal + 0.5) * healthy_read, kind="disk_fail", disk=victim,
        )])
        policy = ReadPolicy(
            timeout_seconds=2 * healthy_read, max_retries=1, hedge=seed % 2 == 1
        )
        sync_server, async_server = make_server(seed), make_server(seed)
        sync_server.fail_disk(FAILED)
        async_server.fail_disk(FAILED)
        lost_shards = {si: pristine.layout[si].lost_shards([FAILED]) for si in stripes}

        sync = recover_disk(
            sync_server, ALGORITHMS[algorithm](), FAILED,
            faults=schedule, policy=policy,
        )
        service = run_service(
            async_server, policy, algorithm, faults=schedule,
            max_concurrent_stripes=1,
        )

        assert sync.loss.faults_injected == {"disk_fail": 1}, f"seed {seed}"
        assert service.loss.faults_injected == {"disk_fail": 1}, f"seed {seed}"
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

    # the fault cost some stripe a re-plan, and left others untouched
    assert {RECOVERED, REPLANNED} <= seen
