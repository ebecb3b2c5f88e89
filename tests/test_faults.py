"""repro.faults: schedules, the generator, and both schedule interpreters."""

import numpy as np
import pytest

from repro.ec.stripe import ChunkId
from repro.errors import ConfigurationError, LatentSectorError
from repro.faults import FAULT_KINDS, FaultEvent, FaultSchedule, generate_fault_schedule
from repro.faults.injector import FaultInjector
from repro.faults.spec import HANG_FACTOR
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.hdss.store import FaultyChunkStore


def make_server(seed=0, num_disks=12, stripes=6):
    cfg = HDSSConfig(
        num_disks=num_disks, n=9, k=6, chunk_size=1024,
        memory_chunks=12, spares=3, seed=seed,
    )
    server = HighDensityStorageServer(cfg)
    server.provision_stripes(stripes, with_data=True)
    return server


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at=0.0, kind="meteor", disk=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at=-1.0, kind="disk_fail", disk=0)

    def test_sector_error_needs_coordinates(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at=0.0, kind="sector_error", disk=0)

    def test_slow_factor_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at=0.0, kind="slow", disk=0, factor=0.5)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at=0.0, kind="slow", disk=0, duration=0.0)

    def test_window_end(self):
        assert FaultEvent(at=1.0, kind="slow", disk=0, duration=2.0).window_end == 3.0
        assert FaultEvent(at=1.0, kind="slow", disk=0).window_end == float("inf")

    def test_hang_uses_hang_factor(self):
        e = FaultEvent(at=0.0, kind="hang", disk=0, duration=1.0)
        assert e.effective_factor == HANG_FACTOR


class TestScheduleSpec:
    def test_events_sorted_by_time(self):
        sched = FaultSchedule([
            FaultEvent(at=5.0, kind="disk_fail", disk=1),
            FaultEvent(at=1.0, kind="slow", disk=2, duration=1.0),
        ])
        assert [e.at for e in sched] == [1.0, 5.0]

    def test_spec_roundtrip(self):
        sched = FaultSchedule([
            FaultEvent(at=0.5, kind="disk_fail", disk=3),
            FaultEvent(at=1.0, kind="sector_error", disk=2, stripe=4, shard=1),
            FaultEvent(at=2.0, kind="slow", disk=0, factor=8.0, duration=3.0),
            FaultEvent(at=2.5, kind="hang", disk=1, duration=0.5),
        ])
        assert FaultSchedule.from_spec(sched.to_spec()) == sched

    def test_json_roundtrip(self, tmp_path):
        sched = generate_fault_schedule(seed=3, num_events=6, num_stripes=10)
        path = sched.to_json(tmp_path / "spec.json")
        assert FaultSchedule.from_json(path) == sched

    def test_bare_list_spec_accepted(self):
        sched = FaultSchedule.from_spec([{"at": 1.0, "kind": "disk_fail", "disk": 0}])
        assert len(sched) == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_spec([{"at": 1.0, "kind": "disk_fail", "disk": 0,
                                      "severity": "bad"}])

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_json(p)


class TestGenerator:
    def test_same_seed_same_schedule(self):
        a = generate_fault_schedule(seed=11, num_events=8, num_stripes=20)
        b = generate_fault_schedule(seed=11, num_events=8, num_stripes=20)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_fault_schedule(seed=11, num_events=8)
        b = generate_fault_schedule(seed=12, num_events=8)
        assert a != b

    def test_disk_fail_cap_respected(self):
        sched = generate_fault_schedule(
            seed=0, num_events=40, kinds=("disk_fail", "slow"), max_disk_fails=2
        )
        assert len(sched.for_kind("disk_fail")) <= 2

    def test_no_sector_errors_without_stripes(self):
        sched = generate_fault_schedule(seed=0, num_events=30, num_stripes=0)
        assert not sched.for_kind("sector_error")

    def test_sector_errors_carry_coordinates(self):
        sched = generate_fault_schedule(
            seed=1, num_events=30, num_stripes=10, kinds=("sector_error",)
        )
        assert sched.for_kind("sector_error")
        for e in sched.for_kind("sector_error"):
            assert 0 <= e.stripe < 10
            assert 0 <= e.shard < 9

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_fault_schedule(num_events=-1)
        with pytest.raises(ConfigurationError):
            generate_fault_schedule(horizon=0.0)
        with pytest.raises(ConfigurationError):
            generate_fault_schedule(kinds=("meteor",))

    def test_all_kinds_valid_events(self):
        sched = generate_fault_schedule(
            seed=5, num_events=50, num_stripes=10, horizon=2.0
        )
        for e in sched:
            assert e.kind in FAULT_KINDS
            assert 0.0 <= e.at < 2.0


class TestFaultInjector:
    def test_disk_fail_really_fails(self):
        server = make_server()
        inj = FaultInjector(server, FaultSchedule([
            FaultEvent(at=1.0, kind="disk_fail", disk=2),
        ]))
        assert inj.advance(0.5) == []
        assert not server.disk(2).is_failed
        fired = inj.advance(1.5)
        assert [e.kind for e in fired] == ["disk_fail"]
        assert server.disk(2).is_failed
        assert inj.applied == {"disk_fail": 1}

    def test_duplicate_disk_fail_is_noop(self):
        server = make_server()
        inj = FaultInjector(server, FaultSchedule([
            FaultEvent(at=1.0, kind="disk_fail", disk=2),
            FaultEvent(at=2.0, kind="disk_fail", disk=2),
        ]))
        fired = inj.advance(3.0)
        assert len(fired) == 1

    def test_out_of_range_disk_is_noop(self):
        server = make_server(num_disks=12)
        inj = FaultInjector(server, FaultSchedule([
            FaultEvent(at=1.0, kind="disk_fail", disk=99),
        ]))
        assert inj.advance(2.0) == []
        assert inj.applied == {}

    def test_slow_window_degrades_then_heals(self):
        server = make_server()
        nominal = server.disk(3).current_bandwidth
        inj = FaultInjector(server, FaultSchedule([
            FaultEvent(at=1.0, kind="slow", disk=3, factor=4.0, duration=2.0),
        ]))
        inj.advance(1.0)
        assert server.disk(3).current_bandwidth == pytest.approx(nominal / 4.0)
        inj.advance(10.0)
        assert server.disk(3).current_bandwidth == pytest.approx(nominal)
        assert inj.exhausted

    def test_overlapping_windows_keep_worst_factor(self):
        server = make_server()
        nominal = server.disk(3).current_bandwidth
        inj = FaultInjector(server, FaultSchedule([
            FaultEvent(at=1.0, kind="slow", disk=3, factor=2.0, duration=10.0),
            FaultEvent(at=2.0, kind="slow", disk=3, factor=8.0, duration=2.0),
        ]))
        inj.advance(2.0)
        assert server.disk(3).current_bandwidth == pytest.approx(nominal / 8.0)
        inj.advance(5.0)  # inner window closed; outer still open
        assert server.disk(3).current_bandwidth == pytest.approx(nominal / 2.0)

    def test_sector_error_poisons_one_chunk(self):
        server = make_server()
        stripe = server.layout[0]
        shard = 0
        disk = stripe.disks[shard]
        inj = FaultInjector(server, FaultSchedule([
            FaultEvent(at=1.0, kind="sector_error", disk=disk,
                       stripe=0, shard=shard),
        ]))
        inj.advance(1.0)
        assert isinstance(server.store, FaultyChunkStore)
        with pytest.raises(LatentSectorError):
            server.store.get(disk, ChunkId(0, shard))
        # the rest of the disk still serves
        other = next(c for c in server.store.chunks_on_disk(disk)
                     if c != ChunkId(0, shard))
        assert isinstance(server.store.get(disk, other), np.ndarray)

    def test_next_change_time_tracks_pending_and_windows(self):
        server = make_server()
        inj = FaultInjector(server, FaultSchedule([
            FaultEvent(at=1.0, kind="slow", disk=3, factor=4.0, duration=2.0),
            FaultEvent(at=5.0, kind="disk_fail", disk=4),
        ]))
        assert inj.next_change_time() == 1.0
        inj.advance(1.0)
        assert inj.next_change_time() == 3.0  # window close precedes next event
        inj.advance(3.0)
        assert inj.next_change_time() == 5.0
        inj.advance(5.0)
        assert inj.next_change_time() == float("inf")
        assert inj.exhausted


class TestProcessCrash:
    """Scripted process_crash events and the resume skip budget."""

    def test_spec_roundtrip_without_disk(self):
        schedule = FaultSchedule.from_spec(
            {"events": [{"at": 1.5, "kind": "process_crash"}]}
        )
        event = schedule.events[0]
        assert event.kind == "process_crash"
        assert event.disk == 0
        assert FaultSchedule.from_spec(schedule.to_spec()) == schedule

    def test_generator_never_draws_crashes(self):
        from repro.faults.spec import GENERATED_KINDS

        assert "process_crash" not in GENERATED_KINDS
        schedule = generate_fault_schedule(seed=1, num_events=50, num_disks=12)
        assert not schedule.for_kind("process_crash")

    def test_injector_raises_simulated_crash(self):
        from repro.faults import SimulatedCrash

        server = make_server()
        inj = FaultInjector(server, FaultSchedule([
            FaultEvent(at=1.0, kind="process_crash"),
        ]))
        inj.advance(0.5)  # not yet
        with pytest.raises(SimulatedCrash) as exc_info:
            inj.advance(1.0)
        assert exc_info.value.event.at == 1.0
        assert inj.applied.get("process_crash") == 1

    def test_crash_is_not_a_plain_exception(self):
        """Retry/replan handlers catch Exception; a crash must pass them."""
        from repro.faults import SimulatedCrash

        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)

    def test_skip_crashes_budget(self):
        from repro.faults import SimulatedCrash

        server = make_server()
        schedule = FaultSchedule([
            FaultEvent(at=1.0, kind="process_crash"),
            FaultEvent(at=2.0, kind="process_crash"),
        ])
        inj = FaultInjector(server, schedule, skip_crashes=1)
        inj.advance(1.0)  # first crash already happened pre-resume: skipped
        with pytest.raises(SimulatedCrash):
            inj.advance(2.0)


# ---------------------------------------------------------------------------
# Service-plane faults: spec round-trips, the daemon split, wire injector
# ---------------------------------------------------------------------------
class TestServiceFaultSpec:
    def test_service_kinds_round_trip_with_daemon(self):
        from repro.faults.spec import SERVICE_FAULT_KINDS

        schedule = FaultSchedule([
            FaultEvent(at=1.0, kind="daemon_crash", daemon=2),
            FaultEvent(at=3, kind="conn_reset", daemon=1),
            FaultEvent(at=5, kind="slow_peer", daemon=0, factor=4, duration=0.2),
            FaultEvent(at=7, kind="partial_frame", daemon=1),
            FaultEvent(at=9, kind="clock_skew", daemon=0, factor=2.5),
        ])
        spec = schedule.to_spec()
        for entry in spec["events"]:
            assert "daemon" in entry
            assert "disk" not in entry
            assert entry["kind"] in SERVICE_FAULT_KINDS
        again = FaultSchedule.from_spec(spec)
        assert [e.kind for e in again] == [e.kind for e in schedule]
        assert [e.daemon for e in again] == [2, 1, 0, 1, 0]

    def test_for_daemon_splits_planes(self):
        from repro.faults.service import is_service_schedule

        schedule = FaultSchedule([
            FaultEvent(at=0.5, kind="disk_fail", disk=4),
            FaultEvent(at=1.0, kind="daemon_crash", daemon=1),
            FaultEvent(at=2, kind="conn_reset", daemon=0),
            FaultEvent(at=3, kind="slow_peer", daemon=1, duration=0.1),
        ])
        assert is_service_schedule(schedule)
        local0, wire0 = schedule.for_daemon(0)
        # Generic disk faults reach every daemon; daemon 1's crash and
        # slow_peer do not reach daemon 0.
        assert [e.kind for e in local0] == ["disk_fail"]
        assert [e.kind for e in wire0] == ["conn_reset"]
        local1, wire1 = schedule.for_daemon(1)
        # The addressed daemon sees its crash as a process_crash on the
        # modeled clock — same semantics as the single-process kind.
        assert [e.kind for e in local1] == ["disk_fail", "process_crash"]
        assert local1.events[1].at == 1.0
        assert [e.kind for e in wire1] == ["slow_peer"]
        assert not is_service_schedule(local1)


class TestServiceFaultInjector:
    def make(self, events, daemon=0):
        from repro.faults.service import ServiceFaultInjector

        return ServiceFaultInjector(FaultSchedule(events), daemon=daemon)

    def test_oneshots_fire_once_at_their_ordinal(self):
        inj = self.make([
            FaultEvent(at=1, kind="conn_reset"),
            FaultEvent(at=2, kind="partial_frame"),
        ])
        assert not inj.on_request().disruptive          # ordinal 0
        verdict = inj.on_request()                      # ordinal 1
        assert verdict.reset and not verdict.partial
        verdict = inj.on_request()                      # ordinal 2
        assert verdict.partial and not verdict.reset
        assert not inj.on_request().disruptive          # consumed
        assert inj.applied == {"conn_reset": 1, "partial_frame": 1}
        assert inj.exhausted

    def test_slow_peer_window_spans_factor_requests(self):
        inj = self.make([
            FaultEvent(at=1, kind="slow_peer", factor=2, duration=0.25),
        ])
        assert inj.on_request().delay_seconds == 0.0    # ordinal 0
        assert not inj.exhausted
        assert inj.on_request().delay_seconds == 0.25   # ordinal 1
        assert inj.on_request().delay_seconds == 0.25   # ordinal 2
        assert inj.on_request().delay_seconds == 0.0    # window closed
        assert inj.applied["slow_peer"] == 2
        assert inj.exhausted

    def test_clock_skew_accumulates(self):
        inj = self.make([
            FaultEvent(at=0, kind="clock_skew", factor=1.5),
            FaultEvent(at=0, kind="clock_skew", factor=2.0),
        ])
        assert inj.on_request().skew_seconds == pytest.approx(3.5)
        assert inj.on_request().skew_seconds == 0.0

    def test_late_oneshot_fires_on_next_request(self):
        # An event whose ordinal already passed still fires exactly once.
        inj = self.make([FaultEvent(at=0, kind="conn_reset")])
        inj.requests_seen = 5
        assert inj.on_request().reset
        assert not inj.on_request().reset


class TestCorruptionFaultSpec:
    def test_corruption_kinds_round_trip_with_coordinates(self):
        from repro.faults.spec import CORRUPTION_FAULT_KINDS

        schedule = FaultSchedule([
            FaultEvent(at=2, kind="bitrot", disk=3, stripe=1, shard=0),
            FaultEvent(at=4, kind="torn_write", disk=7, stripe=5, shard=2),
            FaultEvent(at=6, kind="misdirected_write", disk=1, stripe=9, shard=4),
        ])
        spec = schedule.to_spec()
        for entry in spec["events"]:
            assert entry["kind"] in CORRUPTION_FAULT_KINDS
            # corruption needs full chunk coordinates on the wire
            assert {"disk", "stripe", "shard"} <= set(entry)
        again = FaultSchedule.from_spec(spec)
        assert again == schedule

    def test_corruption_requires_stripe_and_shard(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at=1, kind="bitrot", disk=0)
        with pytest.raises(ConfigurationError):
            FaultEvent(at=1, kind="torn_write", disk=0, stripe=1)

    def test_injector_delivers_corruptions_once_at_ordinal(self):
        from repro.faults.service import ServiceFaultInjector

        inj = ServiceFaultInjector(FaultSchedule([
            FaultEvent(at=1, kind="bitrot", disk=2, stripe=0, shard=1),
            FaultEvent(at=1, kind="torn_write", disk=3, stripe=4, shard=0),
        ]))
        assert inj.on_request().corruptions == []       # ordinal 0
        verdict = inj.on_request()                      # ordinal 1
        assert [e.kind for e in verdict.corruptions] == ["bitrot", "torn_write"]
        assert verdict.corruptions[0].stripe == 0
        assert inj.on_request().corruptions == []       # consumed
        assert inj.applied == {"bitrot": 1, "torn_write": 1}
        assert inj.exhausted
