"""Event-kernel edge cases and guards."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import AllOf, Engine, Event


class TestRunGuards:
    def test_max_steps_guard(self):
        eng = Engine()

        def rescheduler():
            eng.schedule(0.0, rescheduler)

        eng.schedule(0.0, rescheduler)
        with pytest.raises(SimulationError):
            eng.run(max_steps=100)

    def test_negative_schedule_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(-0.1, lambda: None)

    def test_run_until_leaves_future_events(self):
        eng = Engine()
        fired = []
        eng.timeout(2.0).add_callback(lambda e: fired.append(1))
        eng.run(until=1.0)
        assert fired == []
        eng.run()
        assert fired == [1]


class TestProcessEdges:
    def test_return_value_propagates(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)
            return {"answer": 42}

        p = eng.process(proc())
        eng.run()
        assert p.value == {"answer": 42}

    def test_immediate_return(self):
        eng = Engine()

        def proc():
            return "done"
            yield  # pragma: no cover

        p = eng.process(proc())
        eng.run()
        assert p.triggered and p.value == "done"

    def test_nested_processes(self):
        eng = Engine()

        def child():
            yield eng.timeout(2.0)
            return "child-done"

        def parent():
            result = yield eng.process(child())
            return f"parent-saw-{result}"

        p = eng.process(parent())
        eng.run()
        assert p.value == "parent-saw-child-done"
        assert eng.now == 2.0

    def test_exception_in_process_propagates_to_run(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)
            raise ValueError("boom")

        eng.process(proc())
        with pytest.raises(ValueError, match="boom"):
            eng.run()

    def test_many_parallel_timeouts(self):
        eng = Engine()
        done = []

        def proc(i):
            yield eng.timeout(float(i % 7) + 0.1)
            done.append(i)

        for i in range(500):
            eng.process(proc(i))
        eng.run()
        assert len(done) == 500


class TestAllOfEdges:
    def test_all_of_with_already_triggered_child(self):
        eng = Engine()
        ev = Event(eng)
        ev.succeed("early")
        join = AllOf(eng, [ev, eng.timeout(1.0, "late")])
        results = []
        join.add_callback(lambda e: results.append(e.value))
        eng.run()
        assert results == [["early", "late"]]

    def test_all_of_value_order_stable(self):
        eng = Engine()
        join = AllOf(eng, [eng.timeout(3.0, "a"), eng.timeout(1.0, "b")])
        got = []
        join.add_callback(lambda e: got.append(e.value))
        eng.run()
        assert got == [["a", "b"]]  # original order, not completion order


class TestSlotResourceEdges:
    def test_release_more_than_in_use(self):
        eng = Engine()
        res = eng.slot_resource(4)

        def proc():
            yield res.request(2)
            res.release(2)
            res.release(1)  # nothing in use any more

        eng.process(proc())
        with pytest.raises(SimulationError):
            eng.run()

    def test_zero_request_rejected(self):
        eng = Engine()
        res = eng.slot_resource(4)
        with pytest.raises(SimulationError):
            res.request(0)

    def test_many_waiters_all_served(self):
        eng = Engine()
        res = eng.slot_resource(3)
        served = []

        def proc(i, size):
            yield res.request(size)
            yield eng.timeout(1.0)
            res.release(size)
            served.append(i)

        for i in range(50):
            eng.process(proc(i, 1 + i % 3))
        eng.run()
        assert len(served) == 50
        assert res.in_use == 0
