"""The discrete-event kernel: events, processes, slot resources."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import AllOf, Engine, Event


class TestTimeAdvance:
    def test_timeout_fires_at_delay(self):
        eng = Engine()
        fired = []
        eng.timeout(5.0).add_callback(lambda ev: fired.append(eng.now))
        eng.run()
        assert fired == [5.0]

    def test_ordering(self):
        eng = Engine()
        order = []
        eng.timeout(3.0).add_callback(lambda ev: order.append("b"))
        eng.timeout(1.0).add_callback(lambda ev: order.append("a"))
        eng.timeout(3.0).add_callback(lambda ev: order.append("c"))
        eng.run()
        assert order == ["a", "b", "c"]  # ties broken by schedule order

    def test_run_until(self):
        eng = Engine()
        fired = []
        eng.timeout(10.0).add_callback(lambda ev: fired.append(1))
        assert eng.run(until=5.0) == 5.0
        assert fired == []

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.timeout(-1.0)

    def test_empty_run(self):
        assert Engine().run() == 0.0


class TestEvent:
    def test_double_trigger_rejected(self):
        eng = Engine()
        ev = Event(eng)
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_late_callback_still_runs(self):
        eng = Engine()
        ev = Event(eng)
        ev.succeed("v")
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        eng.run()
        assert got == ["v"]


class TestProcess:
    def test_sequential_timeouts(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)
            yield eng.timeout(2.0)
            return "done"

        p = eng.process(proc())
        eng.run()
        assert p.triggered
        assert p.value == "done"
        assert eng.now == 3.0

    def test_yield_non_event_raises(self):
        eng = Engine()

        def proc():
            yield 42

        eng.process(proc())
        with pytest.raises(SimulationError):
            eng.run()

    def test_all_of_join(self):
        eng = Engine()

        def proc():
            results = yield AllOf(eng, [eng.timeout(1.0, "a"), eng.timeout(3.0, "b")])
            return results

        p = eng.process(proc())
        eng.run()
        assert p.value == ["a", "b"]
        assert eng.now == 3.0

    def test_all_of_empty(self):
        eng = Engine()

        def proc():
            yield AllOf(eng, [])
            return "ok"

        p = eng.process(proc())
        eng.run()
        assert p.value == "ok"


class TestSlotResource:
    def test_grant_within_capacity(self):
        eng = Engine()
        res = eng.slot_resource(4)

        def proc():
            yield res.request(3)
            assert res.in_use == 3
            res.release(3)

        eng.process(proc())
        eng.run()
        assert res.in_use == 0

    def test_first_fit_overtakes(self):
        eng = Engine()
        res = eng.slot_resource(4)
        order = []

        def holder():
            yield res.request(3)
            yield eng.timeout(5.0)
            res.release(3)

        def big():
            yield res.request(3)
            order.append(("big", eng.now))
            res.release(3)

        def small():
            yield res.request(1)
            order.append(("small", eng.now))
            res.release(1)

        eng.process(holder())
        eng.process(big())
        eng.process(small())
        eng.run()
        # first-fit: small slips into the free slot at t=0.
        assert ("small", 0.0) in order

    def test_oversized_request_rejected(self):
        eng = Engine()
        res = eng.slot_resource(2)
        with pytest.raises(SimulationError):
            res.request(3)

    def test_over_release_rejected(self):
        eng = Engine()
        res = eng.slot_resource(2)
        with pytest.raises(SimulationError):
            res.release(1)

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            Engine().slot_resource(0)

    def test_utilization_full_then_idle(self):
        eng = Engine()
        res = eng.slot_resource(2)

        def proc():
            yield res.request(2)
            yield eng.timeout(5.0)
            res.release(2)
            yield eng.timeout(5.0)

        eng.process(proc())
        eng.run()
        assert res.utilization(until=10.0) == pytest.approx(0.5)

    def test_utilization_zero_time(self):
        eng = Engine()
        res = eng.slot_resource(2)
        assert res.utilization(until=0.0) == 0.0
