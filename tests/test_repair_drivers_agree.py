"""Properties of the one real-bytes repair driver, over 24 seeds.

``recover_disk`` runs its job through ``RepairService.run_job`` — the
daemon's own job body, on a private service with one stripe in flight — so
there is one driver left to hold to its invariants, not two to compare:

* *state faults* (an extra failed disk, latent-bad chunks, permanently
  degraded disks, set up front): every rebuilt chunk is the original
  bytes, every rung of the salvage ladder is reached, and certification
  says both yes and no;
* *crash → resume*: a journal cut after N ``stripe_done`` records and
  resumed on a fresh server ends where the uninterrupted run of the same
  seed ended — the same outcome map, the same bytes, N stripes replayed
  and the same journal plus one ``resume`` record;
* *a timed fault*: a survivor disk dies at a seed-chosen read ordinal — any
  read, mid-round included — and both entry points, ``recover_disk`` and
  ``submit_repair`` one stripe at a time, price every read on one serial
  :class:`~repro.core.stripe_repair.ReadClock`, so they agree on every
  stripe's outcome, every ladder counter and every byte.

Every run is also held to the full-stripe parity proof
(:func:`~repro.service.chaos_rig.check_parity_clean`): what a job certified
clean from what it had in hand must scrub clean shard by shard, and what it
called degraded the scrub must call degraded too. And every run must give
the repair memory back.
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
#: The ladder's counters, as ``DataLossReport`` fields.
COUNTERS = ("timeouts", "retries", "hedged_reads", "replans", "fresh_restarts",
            "salvaged_chunks", "reread_chunks")


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


def algorithm_of(seed):
    """Single-round plans (fsr) and multi-round ones, each with and without
    hedging."""
    return ("hd-psr-ap", "fsr")[seed // 2 % 2]


def policy_of(server, seed):
    healthy_read = server.disk(FAILED).transfer_time(512, jittered=False)
    return ReadPolicy(
        timeout_seconds=2 * healthy_read, max_retries=1, hedge=seed % 2 == 1
    )


def assert_original_bytes(server, result, originals, seed):
    """Every chunk the run rebuilt is the shard the encoder wrote."""
    for si, shard, spare in result.data_path.writebacks:
        got = server.store.get(spare, ChunkId(si, shard))
        assert np.array_equal(got, originals[(si, shard)]), f"seed {seed}: {si}/{shard}"


def test_state_faults_rebuild_the_original_bytes():
    seen, certified = set(), set()
    for seed in SEEDS:
        server = make_server(seed)
        originals = snapshot(server)
        policy = policy_of(server, seed)
        apply_faults(server, seed)
        result = recover_disk(
            server, ALGORITHMS[algorithm_of(seed)](), FAILED, policy=policy
        )
        lost = {si for si, outcome in result.loss.stripes.items() if outcome == LOST}
        assert not {si for si, _, _ in result.data_path.writebacks} & lost
        assert_original_bytes(server, result, originals, seed)
        assert_certification_holds(server, result, seed)
        seen |= set(result.loss.stripes.values())
        certified.add(result.certified)

    # the fault mix is not vacuous: every rung of the ladder was reached,
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


def record_types(journal):
    """Multiset of record types; a job never journals a round."""
    types = Counter(record.type for record in WALReader(journal))
    assert "round_commit" not in types
    return types


def test_a_resumed_run_matches_an_uninterrupted_one(tmp_path):
    replayed = 0
    for seed in SEEDS:
        algorithm = ALGORITHMS[algorithm_of(seed)]

        def faulted():
            server = make_server(seed)
            apply_faults(server, seed)
            return server

        pristine = make_server(seed)
        originals = snapshot(pristine)
        policy = policy_of(pristine, seed)
        cut = 1 + seed % 3
        full_dir, cut_dir = tmp_path / f"full-{seed}", tmp_path / f"cut-{seed}"

        full_server = faulted()
        full = recover_disk(
            full_server, algorithm(), FAILED, policy=policy, journal=full_dir
        )
        cut_journal(full_dir, cut_dir, cut)
        cut_stripes = {
            r.meta["stripe"] for r in WALReader(cut_dir) if r.type == "stripe_done"
        }

        # A fresh server: the volatile store lost the rebuilt chunks, so
        # the replay re-puts each cut stripe's chunks from its record.
        server = faulted()
        resumed = recover_disk(
            server, algorithm(), FAILED, policy=policy, journal=cut_dir, resume=True
        )

        assert resumed.loss.stripes == full.loss.stripes, f"seed {seed}"
        assert resumed.loss.resumed_stripes == cut, f"seed {seed}"
        assert resumed.loss.replayed_chunks == sum(
            si in cut_stripes for si, _, _ in full.data_path.writebacks
        ), f"seed {seed}"
        assert sorted(resumed.data_path.writebacks) == sorted(
            full.data_path.writebacks
        ), f"seed {seed}"
        assert record_types(cut_dir) == record_types(full_dir) + Counter(resume=1), (
            f"seed {seed}"
        )
        replayed += resumed.loss.replayed_chunks
        assert_original_bytes(server, resumed, originals, seed)
        assert_certification_holds(full_server, full, seed)
        assert_certification_holds(server, resumed, seed)

    # the replay path was taken, not skipped
    assert replayed


def test_both_entry_points_agree_under_a_timed_fault():
    """One survivor disk dies at a seed-chosen read ordinal — any read of
    any round. Both entry points run one stripe at a time on the one read
    clock, so the fault lands at the same read, between two reads, and
    every stripe, counter and byte agrees."""
    seen = set()
    for seed in SEEDS:
        algorithm = algorithm_of(seed)
        rng = np.random.default_rng(seed)
        pristine = make_server(seed)
        originals = snapshot(pristine)
        stripes = pristine.layout.stripe_set(FAILED)
        survivors = sorted(
            {d for si in stripes for d in pristine.layout[si].disks} - {FAILED}
        )
        victim = int(rng.choice(survivors))
        # Fires as read ``ordinal + 1`` is priced: any read but the first.
        ordinal = int(rng.integers(0, pristine.config.k * len(stripes) - 1))
        healthy_read = pristine.disk(FAILED).transfer_time(512, jittered=False)
        schedule = FaultSchedule([FaultEvent(
            at=(ordinal + 0.5) * healthy_read, kind="disk_fail", disk=victim,
        )])
        policy = policy_of(pristine, seed)
        sync_server, async_server = make_server(seed), make_server(seed)
        sync_server.fail_disk(FAILED)
        async_server.fail_disk(FAILED)

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
        assert sync.loss.stripes == service.loss.stripes, f"seed {seed}"
        for name in COUNTERS:
            assert getattr(sync.loss, name) == getattr(service.loss, name), (
                f"seed {seed}: {name}"
            )
        seen |= set(service.loss.stripes.values())

        rebuilt = [
            (si, shard) for si, shard, _ in sync.data_path.writebacks
        ]
        sync_bytes = rebuilt_chunks(sync_server, rebuilt)
        async_bytes = rebuilt_chunks(async_server, rebuilt)
        for key, want in sync_bytes.items():
            assert np.array_equal(want, originals[key]), f"seed {seed}: {key}"
            assert np.array_equal(async_bytes[key], want), f"seed {seed}: {key}"

    # the fault cost some stripe a re-plan, and left others untouched
    assert {RECOVERED, REPLANNED} <= seen
