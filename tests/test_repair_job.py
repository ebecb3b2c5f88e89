"""The sans-I/O repair-job core alone, then the same job through both entry points.

The unit cases hand :class:`RepairJob` plain dicts and lambdas where a driver
would hand it a store, a spare picker or a journal; the driver cases resume
one journal written by the *parent* commit through ``recover_disk`` and
through ``RepairService.submit_repair``, and check the two satellites that fall out of
having one ``finish``: the daemon's metrics and the refusal text.
"""

import asyncio
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ALGORITHMS, ReadPolicy, recover_disk
from repro.core.plans import RepairPlan, StripePlan
from repro.core.repair_job import RepairJob, certified, place, plan_repair
from repro.ec.stripe import ChunkId, Stripe
from repro.errors import JournalError, StorageError
from repro.faults.report import LOST, RECOVERED, REPLANNED, DataLossReport
from repro.hdss.prober import ActiveProber
from repro.hdss.server import HDSSConfig, HighDensityStorageServer, ScrubReport
from repro.journal.journal import (
    FORMAT_VERSION,
    RepairState,
    StripeDone,
    load_state,
)
from repro.journal.wal import WALReader
from repro.obs.context import use_registry
from repro.obs.metrics import MetricsRegistry
from repro.service import RepairService, ServiceConfig

FINGERPRINT = {"num_disks": 12, "n": 5, "k": 3}
PLAN = RepairPlan(
    "fsr", [StripePlan(1, [[0, 1, 2]]), StripePlan(0, [[0, 1, 2]])]
)
PAYLOAD = np.arange(8, dtype=np.uint8)


#: What a store that died with the process still holds: no target landed.
EMPTY = frozenset()


def journaled_state(**fields):
    base = dict(
        algorithm="fsr", plan=PLAN.to_dict(), stripe_indices=[4, 7],
        survivor_ids=[[1, 2, 3], [0, 2, 4]], failed_disks=[0],
        fingerprint=dict(FINGERPRINT),
    )
    base.update(fields)
    return RepairState(**base)


def fresh_job(**kwargs):
    return RepairJob(PLAN, [4, 7], [[1, 2, 3], [0, 2, 4]], [0], FINGERPRINT, **kwargs)


# --------------------------------------------------------------------- the job
class TestDispatch:
    def test_fresh_job_starts_every_stripe_from_the_plan(self):
        job = fresh_job()
        assert job.journaled(4) is None
        assert job.crashes_survived == 0

    def test_resumed_job_replays_or_starts_fresh(self):
        done = StripeDone(RECOVERED, 0.5, [(0, 12, PAYLOAD)])
        state = journaled_state(done={4: done}, resume_count=2)
        job = RepairJob.resumed(state, FINGERPRINT, "j")
        assert job.journaled(4) is done and job.replayable(done, EMPTY)  # carried: re-put
        assert job.journaled(7) is None  # no record: from its plan
        assert job.crashes_survived == 3  # the first run + one per resume

    def test_a_named_chunk_replays_only_if_it_is_on_its_spare(self):
        """Replay is decided from what is there, not from what was promised:
        the record outran a write-behind put that never landed."""
        named = StripeDone(RECOVERED, 0.5, [(0, 12, None)])
        mixed = StripeDone(REPLANNED, 0.6, [(0, 12, None), (3, 13, PAYLOAD)])
        lost = StripeDone(LOST, 0.7, [])
        state = journaled_state(
            stripe_indices=[4, 7, 9], survivor_ids=[[1, 2, 3], [0, 2, 4], [1, 2, 4]],
            done={4: named, 7: mixed, 9: lost},
        )
        job = RepairJob.resumed(state, FINGERPRINT, "j")
        assert [job.journaled(si) for si in (4, 7, 9)] == [named, mixed, lost]
        assert job.replayable(named, {0})
        assert not job.replayable(mixed, {3})  # its named one is not there
        assert job.replayable(lost, EMPTY)
        assert not job.replayable(named, EMPTY)
        assert job.replayable(mixed, {0})  # shard 3 is carried

    def test_rows_follow_the_plans_admission_order(self):
        assert [(sp.stripe_index, si, shards) for sp, si, shards in fresh_job().rows()] == [
            (1, 7, [0, 2, 4]), (0, 4, [1, 2, 3]),
        ]

    def test_a_job_needs_something_to_rebuild(self):
        with pytest.raises(StorageError, match="no failed disks"):
            RepairJob(PLAN, [4, 7], [[1, 2, 3], [0, 2, 4]], [], FINGERPRINT)
        # A stripe's targets are what it has lost when it starts, not the
        # plan-time failed set: the job has no target rule of its own.
        assert not hasattr(fresh_job(), "targets")


class TestReplayPuts:
    def test_skips_chunks_the_spare_already_holds(self):
        job = fresh_job()
        done = StripeDone(REPLANNED, 0.5, [(0, 12, PAYLOAD), (3, 13, PAYLOAD + 1)])
        puts = job.replay_puts(4, done, {0}, 8)
        assert [(spare, cid) for spare, cid, _ in puts] == [(13, ChunkId(4, 3))]
        assert np.array_equal(puts[0][2], PAYLOAD + 1)
        stats = job.stats
        assert (stats.resumed_stripes, stats.replayed_chunks) == (1, 1)
        # both chunks count as rebuilt and both are remapped at commit
        assert stats.writebacks == [(4, 0, 12), (4, 3, 13)]
        assert (stats.chunks_rebuilt, stats.bytes_written) == (2, 16)
        assert stats.stripes_repaired == 1
        assert stats.loss.stripes == {4: REPLANNED}

    def test_lost_stripe_replays_nothing(self):
        job = fresh_job()
        done = StripeDone(LOST, 0.5, [(0, 12, None)])
        assert job.replay_puts(4, done, EMPTY, 8) == []
        stats = job.stats
        assert (stats.resumed_stripes, stats.replayed_chunks) == (1, 0)
        assert (stats.stripes_lost, stats.chunks_rebuilt, stats.writebacks) == (1, 0, [])
        assert stats.loss.lost == [4]

    def test_named_chunk_is_accounted_at_chunk_size_and_never_re_put(self):
        job = fresh_job()
        done = StripeDone(RECOVERED, 0.5, [(0, 12, None), (3, 13, PAYLOAD)])
        puts = job.replay_puts(4, done, EMPTY, 4096)
        assert [(spare, cid) for spare, cid, _ in puts] == [(13, ChunkId(4, 3))]
        stats = job.stats
        assert (stats.resumed_stripes, stats.replayed_chunks) == (1, 1)
        assert stats.writebacks == [(4, 0, 12), (4, 3, 13)]  # both certified later
        assert (stats.chunks_rebuilt, stats.bytes_written) == (2, 4096 + 8)


class TestRecordWritebacks:
    WRITTEN = [(0, 12, PAYLOAD), (3, 13, PAYLOAD + 1)]

    def test_a_persistent_store_is_named_a_volatile_one_carried(self):
        named = RepairJob.record_writebacks(SimpleNamespace(persistent=True), self.WRITTEN)
        assert named == [(0, 12, None), (3, 13, None)]
        carried = RepairJob.record_writebacks(SimpleNamespace(persistent=False), self.WRITTEN)
        assert carried == self.WRITTEN
        assert RepairJob.record_writebacks(SimpleNamespace(persistent=True), []) == []


class TestPlace:
    def test_two_rebuilt_shards_of_one_stripe_never_share_a_disk(self):
        stripe = Stripe(index=0, n=5, k=3, disks=(0, 1, 2, 3, 4))
        asked = []

        def pick_spare(exclude):
            asked.append(list(exclude))
            return next(d for d in (3, 12, 13) if d not in exclude)

        assert place(stripe, [0, 1], pick_spare, {0, 1}) == [(0, 12), (1, 13)]
        # the stripe's own disks are excluded, then every spare already used
        assert asked == [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 12]]

    def test_a_target_on_a_live_disk_is_rewritten_at_home(self):
        stripe = Stripe(index=0, n=5, k=3, disks=(0, 1, 2, 3, 4))
        asked = []

        def pick_spare(exclude):
            asked.append(list(exclude))
            return 12

        # shard 0's disk failed; shard 3 was quarantined on live disk 3
        assert place(stripe, [0, 3], pick_spare, {0}) == [(0, 12), (3, 3)]
        assert asked == [[0, 1, 2, 3, 4]]


class TestFingerprintGuard:
    def test_foreign_journal_is_refused_naming_the_keys(self):
        state = journaled_state()
        with pytest.raises(JournalError) as excinfo:
            RepairJob.resumed(state, {**FINGERPRINT, "k": 4, "spares": 3}, "/j/disk-000")
        assert str(excinfo.value) == (
            "journal /j/disk-000 was written by a different server configuration "
            "(mismatched: ['k', 'spares']); refusing to resume"
        )

    def test_matching_journal_resumes_the_plan_verbatim(self):
        job = RepairJob.resumed(journaled_state(failed_disks=[0, 6]), FINGERPRINT, "j")
        assert job.plan.to_dict() == PLAN.to_dict()
        assert (job.stripe_indices, job.failed) == ([4, 7], [0, 6])
        assert job.stats.loss is not None


class TestTail:
    def journal(self):
        calls = []
        return calls, SimpleNamespace(
            begin=lambda **kw: calls.append(("begin", kw)),
            mark_resume=lambda clock: calls.append(("resume", clock)),
            complete=lambda **kw: calls.append(("complete", kw)),
            close=lambda: calls.append(("close",)),
        )

    def test_open_writes_begin_or_resume(self):
        calls, journal = self.journal()
        fresh_job().open(journal)
        RepairJob.resumed(journaled_state(clock=0.25), FINGERPRINT, "j").open(journal)
        assert [c[0] for c in calls] == ["begin", "resume"]
        assert calls[0][1] == dict(
            algorithm="fsr", plan=PLAN.to_dict(), stripe_indices=[4, 7],
            survivor_ids=[[1, 2, 3], [0, 2, 4]], failed_disks=[0],
            fingerprint=FINGERPRINT,
        )
        assert calls[1][1] == 0.25

    def test_commit_keeps_all_but_the_lost_and_finish_closes_the_books(self):
        job = fresh_job()
        job.record(4, RECOVERED, [(0, 12, PAYLOAD)])
        job.record(7, LOST)
        job.stats.replans = 2
        remapped = []
        server = SimpleNamespace(commit_writebacks=lambda wb: remapped.extend(wb) or len(wb))
        job.remap(server, 4, [(0, 12)])  # at the stripe's end, not here
        assert remapped == [(4, 0, 12)] and job.remapped == 1
        assert job.commit() == [4]
        calls, journal = self.journal()
        injector = SimpleNamespace(applied={"disk_fail": 1})
        registry = MetricsRegistry()
        with use_registry(registry):
            stats = job.finish(journal, injector, 1.5)
        assert calls == [
            ("complete", dict(stripes_repaired=1, stripes_lost=1, chunks_rebuilt=1,
                              resumed_stripes=0, modeled_seconds=1.5)),
            ("close",),
        ]
        assert stats.modeled_seconds == 1.5
        assert stats.loss.replans == 2
        assert stats.loss.faults_injected == {"disk_fail": 1}
        names = set(registry.snapshot())
        assert {"hdpsr_datapath_chunks_rebuilt_total", "hdpsr_replans_total",
                "hdpsr_stripes_lost_total"} <= names
        assert "hdpsr_read_timeouts_total" not in names  # zero counters stay unexported

    def test_unhardened_job_has_no_loss_report(self):
        job = fresh_job(hardened=False)
        job.record(4, RECOVERED)
        with use_registry(MetricsRegistry()):
            assert job.finish(None, None, 0.0).loss is None

    def test_certified_is_one_predicate(self):
        clean, degraded = ScrubReport(clean=[1]), ScrubReport(degraded=[1])
        lossy = DataLossReport(stripes={1: LOST})
        assert certified(None, clean) and certified(DataLossReport(), clean)
        assert not certified(lossy, clean)
        assert not certified(None, degraded)
        assert not certified(None, ScrubReport(unpopulated=[1]))


# ------------------------------------------------------------------- planning
def small_server(seed=11, **overrides):
    config = dict(num_disks=12, n=6, k=4, chunk_size=64, memory_chunks=6,
                  spares=4, seed=seed, placement="rotating")
    config.update(overrides)
    server = HighDensityStorageServer(HDSSConfig(**config))
    server.provision_stripes(12, with_data=True)
    return server


class TestPlanRepair:
    def test_passive_scheme_plans_from_the_oracle_and_probes_nothing(self):
        server = small_server()
        server.fail_disk(0)
        planned = plan_repair(server, ALGORITHMS["fsr"](), [0])
        assert planned.stripe_indices == server.layout.stripe_set(0)
        assert planned.probe_bytes == 0
        assert planned.L.shape == planned.disk_ids.shape == (len(planned.stripe_indices), 4)
        for si, shards, disks in zip(
            planned.stripe_indices, planned.survivor_ids, planned.disk_ids.tolist()
        ):
            stripe = server.layout[si]
            assert 0 not in disks
            assert disks == [stripe.disks[j] for j in shards]
        assert planned.plan.num_stripes == len(planned.stripe_indices)

    def test_active_scheme_plans_from_probes_and_never_sees_the_oracle(self):
        server = small_server()
        server.degrade_disk(3, 8.0)
        server.fail_disk(0)
        prober = ActiveProber(server, noise=0.0)
        seen = []
        algorithm = ALGORITHMS["hd-psr-ap"]()
        build = algorithm.build_plan
        algorithm.build_plan = lambda L, c, context=None: (
            seen.append((L.copy(), context)) or build(L, c, context=context)
        )
        planned = plan_repair(server, algorithm, [0], prober=prober)
        (L_plan, context), = seen
        assert planned.probe_bytes == prober.probe_bytes_issued > 0
        # noise-free probes estimate exactly the oracle's (unjittered) times
        assert np.allclose(L_plan, planned.L)
        assert L_plan is not planned.L
        assert np.array_equal(context.disk_ids, planned.disk_ids)
        slow = planned.disk_ids == 3
        assert slow.any() and (planned.L[slow] > planned.L[~slow].max()).all()

    def test_stripes_restriction_and_unjittered_times(self):
        server = small_server(jitter=0.2)
        server.fail_disk(0)
        stripes = server.layout.stripe_set(0)[:2]
        planned = plan_repair(
            server, ALGORITHMS["fsr"](), [0], stripes=stripes, jittered=False
        )
        assert planned.stripe_indices == stripes
        assert planned.plan.num_stripes == 2
        size = server.config.chunk_size
        assert planned.L.tolist() == [
            [server.disks[d].transfer_time(size, jittered=False) for d in row]
            for row in planned.disk_ids.tolist()
        ]

    def test_nothing_to_repair_is_an_error(self):
        with pytest.raises(StorageError, match="hold no stripes"):
            plan_repair(small_server(), ALGORITHMS["fsr"](), [0], stripes=[])


# -------------------------------------------------- a journal the parent wrote
#: Written by ``recover_disk`` at the parent commit (baf6b6f), crashed
#: mid-stripe: see tests/data/parent_journal/README.md for the recipe.
PARENT_JOURNAL = Path(__file__).parent / "data" / "parent_journal"


def parent_server():
    server = small_server()
    for disk in (3, 9):
        server.degrade_disk(disk, 8.0)
    return server


def originals_of(server):
    return {
        (si, shard): server.store.get(disk, ChunkId(si, shard))
        for si in range(len(server.layout))
        for shard, disk in enumerate(server.layout[si].disks)
    }


def run_service(server, journal_root, resume=True, **config):
    async def run():
        service = RepairService(
            server, ALGORITHMS["hd-psr-ap"](),
            ServiceConfig(journal_root=journal_root, durable_journal=False, **config),
        )
        try:
            return await service.submit_repair(0, resume=resume).wait()
        finally:
            await service.close()

    return asyncio.run(run())


class TestParentJournalStillResumes:
    def test_fixture_is_a_crashed_version_1_journal(self):
        records = list(WALReader(PARENT_JOURNAL / "disk-000"))
        assert records[0].meta["version"] == FORMAT_VERSION == 1
        rounds = {r.meta["stripe"] for r in records if r.type == "round_commit"}
        assert rounds == {7, 8, 10}
        state = load_state(PARENT_JOURNAL / "disk-000")
        assert state.algorithm == "hd-psr-ap"
        # stripe 8's round_commit is skipped: it restarts from its plan
        assert sorted(state.done) == [7, 10]
        assert not state.completed

    @pytest.mark.parametrize("driver", ["recover_disk", "service"])
    def test_resumes_through_both_drivers(self, tmp_path, driver):
        shutil.copytree(PARENT_JOURNAL, tmp_path / "journal")
        server = parent_server()
        originals = originals_of(server)
        lost = {si: server.layout[si].disks.index(0) for si in server.layout.stripe_set(0)}
        server.fail_disk(0)
        registry = MetricsRegistry()
        with use_registry(registry):
            if driver == "recover_disk":
                result = recover_disk(
                    server, ALGORITHMS["hd-psr-ap"](), 0,
                    journal=tmp_path / "journal" / "disk-000", resume=True,
                )
                resumed = result.data_path.resumed_stripes
            else:
                result = run_service(server, tmp_path / "journal")
                resumed = result.resumed_stripes
        assert result.certified
        assert resumed == result.loss.resumed_stripes == 2
        assert result.loss.replayed_chunks == 2  # the in-memory spare held neither
        # k = 4 reads of 64 B for each of the 4 stripes not replayed,
        # in-flight stripe 8 included: it starts from its plan
        assert registry.get("hdpsr_datapath_bytes_read_total").value == 16 * 64
        for si, shard in lost.items():
            home = server.layout[si].disks[shard]
            assert home >= server.config.num_disks  # remapped onto a spare
            assert np.array_equal(
                server.store.get(home, ChunkId(si, shard)), originals[(si, shard)]
            )
        state = load_state(tmp_path / "journal" / "disk-000")
        assert state.completed and state.resume_count == 1


# ------------------------------------------------ what fell out of one finish
class TestDriversReportAlike:
    def crashed_journal(self, tmp_path):
        shutil.copytree(PARENT_JOURNAL, tmp_path / "journal")
        return tmp_path / "journal"

    def test_daemon_metrics_carry_the_sync_paths_counter_names(self, tmp_path):
        root = self.crashed_journal(tmp_path)
        sync_registry, service_registry = MetricsRegistry(), MetricsRegistry()
        sync_server, service_server = parent_server(), parent_server()
        sync_server.fail_disk(0)
        service_server.fail_disk(0)
        with use_registry(service_registry):
            run_service(service_server, root)
        shutil.rmtree(root)
        root = self.crashed_journal(tmp_path)
        with use_registry(sync_registry):
            recover_disk(sync_server, ALGORITHMS["hd-psr-ap"](), 0,
                         journal=root / "disk-000", resume=True)

        def job_counters(registry):
            return {
                name: metric["series"][0]["value"]
                for name, metric in registry.snapshot().items()
                if name.startswith(("hdpsr_datapath_", "hdpsr_resume_", "hdpsr_read_",
                                    "hdpsr_replan", "hdpsr_hedged", "hdpsr_stripes_lost",
                                    "hdpsr_fresh_restarts", "hdpsr_chunks_salvaged"))
            }

        want = job_counters(sync_registry)
        assert want["hdpsr_resume_stripes_replayed_total"] == 2
        assert want["hdpsr_resume_chunks_redone_total"] == 2
        assert want["hdpsr_datapath_chunks_rebuilt_total"] == 6
        assert job_counters(service_registry) == want

    def test_both_drivers_refuse_a_foreign_journal_in_the_same_words(self, tmp_path):
        root = self.crashed_journal(tmp_path)
        messages = []
        for driver in ("recover_disk", "service"):
            other = small_server(spares=3, memory_chunks=8)
            other.fail_disk(0)
            with pytest.raises(JournalError) as excinfo:
                if driver == "recover_disk":
                    recover_disk(other, ALGORITHMS["hd-psr-ap"](), 0,
                                 journal=root / "disk-000", resume=True)
                else:
                    run_service(other, root)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "mismatched: ['memory_chunks', 'spares']" in messages[0]

    def test_policy_counters_reach_the_daemons_metrics(self):
        server = small_server()
        server.fail_disk(0)
        server.degrade_disk(3, 100.0)
        healthy = server.disk(1).transfer_time(64, jittered=False)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = run_service(
                server, None, resume=False,
                policy=ReadPolicy(timeout_seconds=2 * healthy, max_retries=1, hedge=True),
            )
        snap = registry.snapshot()
        assert result.loss.timeouts and result.loss.hedged_reads
        assert snap["hdpsr_read_timeouts_total"]["series"][0]["value"] == result.loss.timeouts
        assert snap["hdpsr_hedged_reads_total"]["series"][0]["value"] == result.loss.hedged_reads
        assert snap["hdpsr_datapath_bytes_read_total"]["series"][0]["value"] > 0
