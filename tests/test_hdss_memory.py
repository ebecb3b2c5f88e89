"""SlotLedger: the one ``c``-slot rule, its waiter, and its modeled twin."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slot_ledger import SlotLedger
from repro.errors import ConfigurationError, MemoryCapacityError, StorageError
from repro.service.admission import SlotWaiter
from repro.sim.engine import Engine, SlotResource


@pytest.fixture
def mem():
    return SlotLedger(capacity=4)


class TestAdmit:
    def test_capacity_enforced(self, mem):
        for _ in range(4):
            assert mem.try_acquire(1)
        assert not mem.try_acquire(1)
        assert mem.in_use == 4

    def test_all_or_nothing(self, mem):
        assert mem.try_acquire(3)
        assert not mem.try_acquire(2)  # one slot is free; none of it is taken
        assert mem.in_use == 3
        assert mem.try_acquire(1)

    def test_wrong_size_rejected(self, mem):
        for bad in (5, 0, -1):  # 5 could never be granted: a wait would hang
            with pytest.raises(MemoryCapacityError):
                mem.try_acquire(bad)
        assert mem.in_use == 0


class TestReleaseAndState:
    def test_release_frees_slot(self, mem):
        assert mem.try_acquire(4)
        mem.release(1)
        assert mem.try_acquire(1)

    def test_release_unknown_rejected(self, mem):
        with pytest.raises(StorageError):
            mem.release(1)  # nothing held
        assert mem.try_acquire(2)
        for bad in (3, 0, -1):  # more than held, or nothing at all
            with pytest.raises(StorageError):
                mem.release(bad)
        assert mem.in_use == 2

    def test_occupancy_and_available(self, mem):
        assert mem.in_use == 0 and mem.capacity == 4
        assert mem.try_acquire(1)
        assert mem.in_use == 1 and mem.capacity == 4

    def test_release_all(self, mem):
        assert mem.try_acquire(1) and mem.try_acquire(2)
        mem.release(3)  # several rounds' slots may go back in one call
        assert mem.in_use == 0

    def test_peak_tracking(self, mem):
        assert mem.try_acquire(2)
        mem.release(1)
        assert mem.try_acquire(1)
        assert not mem.try_acquire(3)  # a refusal does not move the peak
        assert mem.peak == 2

    def test_parked_counts_each_wait_once(self, mem):
        with mem.parked():
            assert (mem.waits, mem.waiting) == (1, 1)
            with mem.parked():
                assert (mem.waits, mem.waiting) == (2, 2)
        assert (mem.waits, mem.waiting) == (2, 0)

    def test_snapshot(self, mem):
        assert mem.try_acquire(3)
        mem.release(2)
        with mem.parked():
            assert mem.snapshot() == {
                "capacity": 4, "in_use": 1, "peak": 3, "waiting": 1,
            }

    def test_bare_acquire_raises_on_refusal(self, mem):
        mem.acquire(3)
        with pytest.raises(MemoryCapacityError):
            mem.acquire(2)
        assert mem.in_use == 3

    def test_bad_params(self):
        for bad in (0, -3, True):
            with pytest.raises(ConfigurationError):
                SlotLedger(bad)

    def test_repr(self, mem):
        assert repr(mem) == "SlotLedger(capacity=4, in_use=0, peak=0, waits=0, waiting=0)"


# Each worker: the round widths it asks for, one after another.
workloads = st.integers(1, 6).flatmap(
    lambda c: st.tuples(
        st.just(c),
        st.lists(st.lists(st.integers(1, c), min_size=1, max_size=6),
                 min_size=2, max_size=8),
    )
)


class TestWaiters:
    """Random acquire/release interleavings through the blocking adapter:
    never above ``c``, no lost wake-up (everyone finishes), nothing leaked."""

    @given(workloads, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_event_loop(self, workload, rng):
        capacity, workers = workload
        ledger = SlotLedger(capacity)
        slots = SlotWaiter(ledger)

        async def work(widths):
            for n in widths:
                await slots.acquire(n)
                try:
                    assert ledger.in_use <= capacity
                    await asyncio.sleep(0)
                finally:
                    slots.release(n)

        async def run():
            tasks = [asyncio.create_task(work(w)) for w in workers]
            # Cancel some mid-flight — parked, holding, or already done.
            for task in rng.sample(tasks, len(tasks) // 3):
                for _ in range(rng.randrange(4)):
                    await asyncio.sleep(0)
                task.cancel()
            done, pending = await asyncio.wait(tasks, timeout=20)
            assert not pending, "a waiter was never woken"
            for task in done:
                if not task.cancelled():
                    task.result()

        asyncio.run(run())
        assert ledger.peak <= capacity
        assert (ledger.in_use, ledger.waiting) == (0, 0)

    def test_a_narrow_round_overtakes_a_blocked_wide_one(self):
        """First-fit: a wide FSR round waiting does not bar a narrow one."""
        ledger = SlotLedger(6)
        slots = SlotWaiter(ledger)

        async def run():
            await slots.acquire(4)
            wide = asyncio.create_task(slots.acquire(6))
            await asyncio.sleep(0)
            assert ledger.waiting == 1
            await asyncio.wait_for(slots.acquire(2), timeout=5)  # overtakes
            slots.release(2)
            assert not wide.done()
            slots.release(4)
            await asyncio.wait_for(wide, timeout=5)
            slots.release(6)

        asyncio.run(run())
        assert (ledger.in_use, ledger.peak, ledger.waits) == (0, 6, 1)


class TestModeledMemoryMeansTheSame:
    """The ledger behind its asyncio waiter grants exactly the requests the
    simulator's first-fit ``SlotResource`` grants, step by step."""

    @given(
        st.integers(1, 8).flatmap(
            lambda c: st.tuples(
                st.just(c),
                st.lists(st.one_of(st.integers(1, c), st.just("release")),
                         min_size=1, max_size=40),
            )
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_grants_on_the_same_sequence(self, case, rng):
        capacity, ops = case

        async def run():
            modeled = SlotResource(Engine(), capacity)
            ledger = SlotLedger(capacity)
            real = SlotWaiter(ledger)
            widths, events, tasks, released = [], [], [], set()
            for op in ops:
                held = [
                    i for i, e in enumerate(events)
                    if e.triggered and i not in released
                ]
                if op == "release":
                    if not held:
                        continue
                    i = rng.choice(held)
                    released.add(i)
                    modeled.release(widths[i])
                    real.release(widths[i])
                else:
                    widths.append(op)
                    events.append(modeled.request(op))
                    tasks.append(asyncio.create_task(real.acquire(op)))
                for _ in range(3):
                    await asyncio.sleep(0)
                assert [t.done() for t in tasks] == [e.triggered for e in events]
                assert ledger.in_use == modeled.in_use
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run(run())
