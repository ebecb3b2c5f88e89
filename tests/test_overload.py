"""Overload control: deadlines, the brownout controller, retry budgets,
and the open-loop pacer.

Unit layers first — :class:`Deadline` and :class:`OverloadController` are
clock-injected, so the CoDel window arithmetic is tested without
sleeping — then daemon-backed tests that drive real TCP round trips
(two-hop deadline propagation: client → daemon admission → gate), and
the open-loop pacer every load generator here shares. The flash-crowd
episodes — the acceptance test of the whole stack — run in
``test_chaos_episodes.py``. No pytest-asyncio in the toolchain: tests
drive coroutines via ``asyncio.run``.
"""

import asyncio
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadError,
)
from repro.hdss.store import InMemoryChunkStore
from repro.obs.context import current_registry
from repro.service import client as client_module
from repro.service.chaos_rig import (
    PacedStore,
    build_server as make_server,
    build_service,
)
from repro.service.client import (
    ClusterClient,
    ServiceClient,
    pace_open_loop,
    run_open_loop,
    tally_open_loop,
)
from repro.service.overload import (
    CLASS_DEGRADED,
    CLASS_READ,
    CLASS_REPAIR,
    CLASS_SCRUB,
    STATE_BROWNED_OUT,
    STATE_HEALTHY,
    STATE_SHEDDING,
    STATES,
    Deadline,
    OverloadConfig,
    OverloadController,
    RetryBudget,
)
from repro.service.protocol import ERR_DEADLINE, ERR_OVERLOAD
from repro.service.service import FOREGROUND_READS, READ_LATENCY

from tests.conftest import start_daemon, stop_daemon


pytestmark = pytest.mark.usefixtures("fresh_registry")


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------------ Deadline
class TestDeadline:
    def test_budget_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline.from_budget_ms(50.0, clock=clock)
        assert deadline.remaining() == pytest.approx(0.05)
        assert not deadline.expired
        clock.advance(0.049)
        deadline.check("gate")  # still alive: no raise
        clock.advance(0.002)
        assert deadline.expired
        with pytest.raises(DeadlineExceededError) as err:
            deadline.check("gate")
        assert err.value.hop == "gate"
        assert err.value.overshoot_seconds == pytest.approx(0.001, abs=1e-6)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline.from_budget_ms(-1.0)

    def test_zero_budget_expires_at_first_hop(self):
        deadline = Deadline.from_budget_ms(0.0, clock=FakeClock())
        with pytest.raises(DeadlineExceededError) as err:
            deadline.check("admission")
        assert err.value.hop == "admission"


# -------------------------------------------------------------- controller
def make_controller(clock, **overrides):
    defaults = dict(
        target_ms=5.0, shed_target_ms=50.0, interval_ms=100.0,
        recovery_intervals=2, idle_reset_s=10.0, queue_cap=4,
    )
    defaults.update(overrides)
    return OverloadController(OverloadConfig(**defaults), clock=clock)


def feed_window(ctrl, clock, disk, wait_s, observations=3):
    """One full CoDel interval of identical waits, then the rollover."""
    for _ in range(observations):
        ctrl.observe_wait(disk, wait_s)
        clock.advance(0.04)
    ctrl.observe_wait(disk, wait_s)  # past interval_ms: judges the window


class RescanController:
    """The controller's state as a rescan of every disk's window on each
    read — the reference the kept-current state is checked against."""

    def __init__(self, config, clock):
        self.config = config
        self.clock = clock
        self.windows = {}
        self.transitions = 0

    @property
    def state(self):
        now = self.clock()
        for disk in list(self.windows):
            if now - self.windows[disk].last_seen > self.config.idle_reset_s:
                self.transitions += bool(self.windows.pop(disk).level)
        return STATES[max((w.level for w in self.windows.values()), default=0)]

    def browned_disks(self):
        return sorted(d for d, w in self.windows.items() if w.level)

    def observe_wait(self, disk, waited):
        c, now = self.config, self.clock()
        win = self.windows.setdefault(disk, types.SimpleNamespace(
            start=now, min_wait=None, level=0, clean=0, last_seen=now,
        ))
        win.last_seen = now
        if win.min_wait is None or waited < win.min_wait:
            win.min_wait = waited
        if now - win.start < c.interval_ms / 1000.0:
            return
        before = win.level
        if win.min_wait > c.shed_target_ms / 1000.0:
            win.level, win.clean = 2, 0
        elif win.min_wait > c.target_ms / 1000.0:
            win.level, win.clean = max(win.level, 1), 0
        else:
            win.clean += 1
            if win.clean >= c.recovery_intervals and win.level:
                win.level, win.clean = win.level - 1, 0
        self.transitions += win.level != before
        win.start, win.min_wait = now, None


class TestOverloadController:
    def test_transient_burst_does_not_trip(self):
        # CoDel's whole point: one horrific wait inside a window whose
        # *minimum* stayed low is a burst, not a standing queue.
        clock = FakeClock()
        ctrl = make_controller(clock)
        ctrl.observe_wait(1, 0.5)
        clock.advance(0.05)
        ctrl.observe_wait(1, 0.001)  # the lucky read proves no standing queue
        clock.advance(0.06)
        ctrl.observe_wait(1, 0.002)  # rollover: min is 1 ms < target
        assert ctrl.state == STATE_HEALTHY

    def test_standing_queue_browns_out_then_sheds(self):
        clock = FakeClock()
        ctrl = make_controller(clock)
        feed_window(ctrl, clock, disk=1, wait_s=0.010)  # min 10 ms > 5 ms
        assert ctrl.state == STATE_BROWNED_OUT
        feed_window(ctrl, clock, disk=1, wait_s=0.080)  # min 80 ms > 50 ms
        assert ctrl.state == STATE_SHEDDING
        assert ctrl.transitions == 2

    def test_worst_disk_wins(self):
        clock = FakeClock()
        ctrl = make_controller(clock)
        feed_window(ctrl, clock, disk=1, wait_s=0.001)
        feed_window(ctrl, clock, disk=2, wait_s=0.080)
        assert ctrl.state == STATE_SHEDDING

    def test_recovery_needs_consecutive_clean_windows(self):
        clock = FakeClock()
        ctrl = make_controller(clock)
        feed_window(ctrl, clock, disk=1, wait_s=0.080)
        assert ctrl.state == STATE_SHEDDING
        feed_window(ctrl, clock, disk=1, wait_s=0.001)
        assert ctrl.state == STATE_SHEDDING  # one clean window isn't enough
        feed_window(ctrl, clock, disk=1, wait_s=0.001)
        assert ctrl.state == STATE_BROWNED_OUT  # de-escalates one level
        for _ in range(2):
            feed_window(ctrl, clock, disk=1, wait_s=0.001)
        assert ctrl.state == STATE_HEALTHY

    def test_idle_disk_forgotten(self):
        clock = FakeClock()
        ctrl = make_controller(clock, idle_reset_s=1.0)
        feed_window(ctrl, clock, disk=1, wait_s=0.080)
        assert ctrl.state == STATE_SHEDDING
        clock.advance(1.5)  # no traffic at all: the queue is gone
        assert ctrl.state == STATE_HEALTHY

    def test_shed_priority_strict_and_inverse_to_cost(self):
        clock = FakeClock()
        ctrl = make_controller(clock, queue_cap=4)
        feed_window(ctrl, clock, disk=1, wait_s=0.080)
        assert ctrl.state == STATE_SHEDDING
        # repair is never refused, only paced:
        ctrl.admit(CLASS_REPAIR, queue_depth=100)
        assert ctrl.repair_pause() > 0.0
        # degraded decodes are refused outright:
        with pytest.raises(OverloadError) as err:
            ctrl.admit(CLASS_DEGRADED)
        assert err.value.work_class == CLASS_DEGRADED
        assert err.value.retry_after_ms > 0.0
        # plain reads survive until the queue-cap backstop:
        ctrl.admit(CLASS_READ, queue_depth=3)
        with pytest.raises(OverloadError):
            ctrl.admit(CLASS_READ, queue_depth=4)

    def test_healthy_and_browned_admit_everything(self):
        clock = FakeClock()
        ctrl = make_controller(clock)
        for state_setup in (0.001, 0.010):  # healthy, then browned_out
            feed_window(ctrl, clock, disk=1, wait_s=state_setup)
            ctrl.admit(CLASS_DEGRADED)
            ctrl.admit(CLASS_READ, queue_depth=10_000)

    def test_repair_pause_zero_while_healthy(self):
        clock = FakeClock()
        ctrl = make_controller(clock, repair_pace_ms=20.0)
        assert ctrl.repair_pause() == 0.0
        feed_window(ctrl, clock, disk=1, wait_s=0.010)
        browned = ctrl.repair_pause()
        feed_window(ctrl, clock, disk=1, wait_s=0.080)
        assert ctrl.repair_pause() == pytest.approx(2.0 * browned)

    def test_retry_after_scales_with_measured_wait(self):
        clock = FakeClock()
        ctrl = make_controller(clock)
        assert ctrl.retry_after_ms() >= 100.0  # floor: the interval
        feed_window(ctrl, clock, disk=1, wait_s=0.200)
        assert ctrl.retry_after_ms() == pytest.approx(400.0)  # 2x min wait

    def test_snapshot_shape(self):
        clock = FakeClock()
        ctrl = make_controller(clock)
        feed_window(ctrl, clock, disk=3, wait_s=0.080)
        with pytest.raises(OverloadError):
            ctrl.admit(CLASS_DEGRADED)
        snap = ctrl.snapshot()
        assert snap["state"] == STATE_SHEDDING
        assert snap["sheds_total"] == 1
        assert snap["browned_disks"] == [3]
        assert snap["retry_after_ms"] > 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(
            st.just("observe"), st.integers(0, 3),
            st.sampled_from([0.0, 0.003, 0.02, 0.08]),
        ),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.03, 0.11, 0.6, 1.5])),
    ), max_size=60))
    def test_state_matches_a_rescan_of_every_disk(self, steps):
        """The state the controller keeps current equals a rescan of every
        disk's window, and so does the transition count, over any sequence
        of waits and clock advances with the state read after each step
        (as the daemon reads it at every admission). Idle expiry of hot and
        cold disks is in the sequences: ``idle_reset_s`` is 1 s."""
        clock = FakeClock()
        ctrl = make_controller(clock, idle_reset_s=1.0)
        ref = RescanController(ctrl.config, clock)
        for step in steps:
            if step[0] == "observe":
                ctrl.observe_wait(*step[1:])
                ref.observe_wait(*step[1:])
            else:
                clock.advance(step[1])
            assert ctrl.state == ref.state
            assert ctrl.transitions == ref.transitions
            assert ctrl.snapshot()["browned_disks"] == ref.browned_disks()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            OverloadConfig(target_ms=0.0)
        with pytest.raises(ConfigurationError):
            OverloadConfig(target_ms=10.0, shed_target_ms=5.0)
        with pytest.raises(ConfigurationError):
            OverloadConfig(recovery_intervals=0)


# ----------------------------------------------------------- scrub pacing
class TestScrubThrottle:
    def test_throttle_walks_the_states(self):
        """1.0 healthy → brownout factor browned out → None (park) shedding."""
        clock = FakeClock()
        ctrl = make_controller(clock, scrub_brownout_factor=6.0)
        assert ctrl.scrub_throttle() == 1.0
        assert ctrl.scrub_paced == 0
        feed_window(ctrl, clock, disk=1, wait_s=0.010)  # min 10 ms > 5 ms
        assert ctrl.state == STATE_BROWNED_OUT
        assert ctrl.scrub_throttle() == 6.0
        feed_window(ctrl, clock, disk=1, wait_s=0.080)  # min 80 ms > 50 ms
        assert ctrl.state == STATE_SHEDDING
        assert ctrl.scrub_throttle() is None
        assert ctrl.scrub_paced == 2
        assert ctrl.snapshot()["scrub_paced"] == 2

    def test_shedding_sheds_scrub_before_reads(self):
        """Scrub is the cheapest work class: refused outright while a
        below-cap plain read still passes."""
        clock = FakeClock()
        ctrl = make_controller(clock)
        ctrl.admit(CLASS_SCRUB)  # healthy: admitted
        feed_window(ctrl, clock, disk=1, wait_s=0.080)
        assert ctrl.state == STATE_SHEDDING
        with pytest.raises(OverloadError) as err:
            ctrl.admit(CLASS_SCRUB)
        assert err.value.work_class == CLASS_SCRUB
        ctrl.admit(CLASS_READ, queue_depth=0)  # protected class: no raise

    def test_recovery_restores_full_rate(self):
        clock = FakeClock()
        ctrl = make_controller(clock, idle_reset_s=1.0)
        feed_window(ctrl, clock, disk=1, wait_s=0.080)
        assert ctrl.scrub_throttle() is None
        clock.advance(2.0)  # idle expiry returns the disk to healthy
        assert ctrl.state == STATE_HEALTHY
        assert ctrl.scrub_throttle() == 1.0


# ------------------------------------------------------------ retry budget
class TestRetryBudget:
    def test_exhaustion_after_cap_retries(self):
        budget = RetryBudget(ratio=0.0, cap=3.0)
        assert [budget.allow_retry() for _ in range(4)] == [
            True, True, True, False,
        ]
        assert budget.exhausted_count == 1

    def test_requests_earn_fractional_tokens(self):
        budget = RetryBudget(ratio=0.25, cap=2.0)
        for _ in range(2):
            assert budget.allow_retry()
        assert not budget.allow_retry()  # bucket dry
        for _ in range(4):  # 4 successful first attempts earn one token
            budget.on_request()
        assert budget.allow_retry()
        assert not budget.allow_retry()

    def test_cap_bounds_hoarding(self):
        budget = RetryBudget(ratio=1.0, cap=2.0)
        for _ in range(100):
            budget.on_request()
        assert budget.tokens == 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryBudget(ratio=1.5)
        with pytest.raises(ConfigurationError):
            RetryBudget(cap=0.5)


# ----------------------------------------------------- daemon-backed layers
class TestDeadlinePropagation:
    """Two-hop deadline propagation: client → daemon admission → gate."""

    def test_deadline_expires_at_each_hop(self):
        async def run():
            # 50 ms of real service time per read behind a width-1 gate:
            # concurrent reads of one chunk queue 50 ms apart, so a 75 ms
            # budget admits the first two and kills the rest *at the gate*
            # (they were alive at admission).
            store = PacedStore(InMemoryChunkStore(), latency_s=0.05)
            service = build_service(make_server(store), per_disk_reads=1)
            daemon, port, task = await start_daemon(service)
            conns = [
                await ServiceClient.connect("127.0.0.1", port)
                for _ in range(6)
            ]
            try:
                results = await asyncio.gather(
                    *(c.read_chunk(0, 0, deadline_ms=75.0) for c in conns),
                    return_exceptions=True,
                )
                # hop 1: an already-expired budget dies at admission,
                # before touching any queue.
                with pytest.raises(Exception) as err:
                    await conns[0].read_chunk(0, 0, deadline_ms=0.0)
                admission_err = err.value
            finally:
                for c in conns:
                    await c.close()
                await stop_daemon(port, task)

            ok = [r for r in results if not isinstance(r, Exception)]
            dead = [r for r in results if isinstance(r, Exception)]
            assert len(ok) >= 1, "at least the head of the queue must win"
            assert len(dead) >= 2, "the tail must be shed at the gate"
            for exc in dead:
                assert exc.code == ERR_DEADLINE
                assert not exc.retryable
                assert exc.reply["hop"] == "gate"
                assert exc.reply["overshoot_ms"] >= 0.0
            assert admission_err.code == ERR_DEADLINE
            assert admission_err.reply["hop"] == "admission"
            return service

        service = asyncio.run(run())
        # The daemon's controller saw both corpses arrive.
        assert service.overload is None  # deadlines work without a controller

    def test_deadline_tallied_by_controller_when_enabled(self):
        async def run():
            store = PacedStore(InMemoryChunkStore(), latency_s=0.05)
            service = build_service(
                make_server(store), per_disk_reads=1, overload=OverloadConfig()
            )
            daemon, port, task = await start_daemon(service)
            conns = [
                await ServiceClient.connect("127.0.0.1", port)
                for _ in range(5)
            ]
            try:
                await asyncio.gather(
                    *(c.read_chunk(0, 0, deadline_ms=60.0) for c in conns),
                    return_exceptions=True,
                )
            finally:
                for c in conns:
                    await c.close()
                await stop_daemon(port, task)
            return service.overload.deadline_expired

        assert asyncio.run(run()) >= 1


class TestForegroundReadsCount:
    def test_only_a_read_that_returns_bytes_counts(self):
        """``hdpsr_service_foreground_reads_total`` counts front-door reads
        served: a shed read and a read dead at admission do not count, and
        the counter equals the reads the latency histogram recorded."""
        server = make_server()
        service = build_service(server, overload=OverloadConfig())
        clock = FakeClock()
        ctrl = make_controller(clock)
        service.overload = service.gate.controller = ctrl
        stripe = server.layout[0]
        server.fail_disk(stripe.disks[1])

        async def run():
            await service.read_chunk(0, 0)  # healthy
            await service.read_chunk(0, 1)  # degraded: its own decode
            # a standing queue on a disk this stripe's reads never waited on
            idle = next(d for d in range(len(server.disks)) if d not in stripe.disks)
            feed_window(ctrl, clock, disk=idle, wait_s=0.080)
            assert ctrl.state == STATE_SHEDDING
            with pytest.raises(OverloadError):
                await service.read_chunk(0, 1)  # degraded decodes are shed
            with pytest.raises(DeadlineExceededError):
                await service.read_chunk(
                    0, 0, deadline=Deadline(clock() - 1.0, clock=clock)
                )
            return await service.read_chunk(0, 0)  # healthy reads still served

        assert isinstance(asyncio.run(run()), np.ndarray)
        registry = current_registry()
        latency = registry.get(READ_LATENCY)
        recorded = {
            path: latency.labels(path=path).count
            for path in ("healthy", "piggyback", "decode")
        }
        assert recorded == {"healthy": 2, "piggyback": 0, "decode": 1}
        assert registry.get(FOREGROUND_READS).value == sum(recorded.values()) == 3


class TestClusterClientBudgets:
    def test_overload_retries_stop_when_budget_dry(self):
        async def run():
            # max_inflight=0: every read is refused with a retryable
            # overload + retry_after_ms. An unmetered client would ride
            # the full retry ladder; the budget must cut it short.
            service = build_service(make_server())
            daemon, port, task = await start_daemon(service, max_inflight=0)
            endpoint = f"127.0.0.1:{port}"
            client = ClusterClient(
                [endpoint], retries=8, hedge_after=None,
                retry_budget_ratio=0.0, retry_budget_cap=2.0,
            )
            try:
                with pytest.raises(Exception) as err:
                    await client.read_chunk(0, 0)
                budget = client.retry_budget(endpoint)
                assert err.value.code == ERR_OVERLOAD
                assert err.value.reply.get("retry_after_ms", 0) > 0
                # cap=2 → exactly 2 metered retries then surfacing, far
                # below the configured 8-retry ladder.
                assert budget.exhausted_count >= 1
                assert budget.tokens < 1.0
                assert client.retry_count <= 3
            finally:
                await client.close()
                await stop_daemon(port, task)

        asyncio.run(run())


# ------------------------------------------------------ the open-loop pacer
class TestOpenLoopPacer:
    def test_late_start_counts_against_the_service(self, monkeypatch):
        """No coordinated omission: a send the event loop only got round
        to starting 5 s after its arrival reports >= 5 s, not ~0."""
        clock = FakeClock()
        monkeypatch.setattr(
            client_module, "time", types.SimpleNamespace(monotonic=clock)
        )

        async def send(i):
            if i == 0:
                clock.advance(5.0)  # holds the loop: arrival 1 cannot start
            return None

        outcomes = asyncio.run(pace_open_loop([0.0, 0.0], send))
        assert [offset for offset, _ in outcomes] == [0.0, 0.0]
        assert outcomes[1][1] >= 5.0

    def test_outcomes_keep_schedule_order_and_error_codes(self):
        async def send(i):
            return ERR_OVERLOAD if i % 2 else None

        times = [0.0, 0.001, 0.002, 0.003]
        outcomes = asyncio.run(pace_open_loop(times, send))
        assert [offset for offset, _ in outcomes] == times
        assert [r for _, r in outcomes if isinstance(r, str)] == [ERR_OVERLOAD] * 2
        latencies, errors = tally_open_loop(outcomes)
        assert len(latencies) == 2 and errors == {ERR_OVERLOAD: 2}

    def test_empty_schedule(self):
        async def send(i):
            raise AssertionError("nothing to send")

        assert asyncio.run(pace_open_loop([], send)) == []

    def test_run_open_loop_against_a_daemon(self):
        async def run():
            daemon, port, task = await start_daemon(build_service(make_server()))
            try:
                return await run_open_loop(
                    "127.0.0.1", port, rate=100.0, duration=0.2, seed=3,
                    connections=4,
                )
            finally:
                await stop_daemon(port, task)

        report = asyncio.run(run())
        assert report["offered"] >= 1
        assert report["completed"] == report["offered"]
        assert report["errors"] == {}
        assert 0 < report["read_p50_seconds"] <= report["read_p99_seconds"]
