"""The kernel's coroutine driver: one awaitable, one event per sleep.

Daemon-versus-essential liveness (a daemon sleep never extends a run,
an essential one does, daemons interleave while essential work remains)
is pinned by ``TestDaemonTimeouts`` in
``tests/faults/test_kernel_additions.py``; this file covers the rest of
the contract: stepping, stopping, failing, and what may be awaited.
"""

import asyncio

import pytest

from repro.errors import SimulationError
from repro.live.clock import WallClock
from repro.sim import Coroutine, SimClock, Simulator, Sleep


class TestStepping:
    def test_sleep_resumes_after_delay(self):
        sim = Simulator()
        log = []

        async def worker():
            log.append(sim.now)
            await Sleep(3.0)
            log.append(sim.now)
            await Sleep(0.0)
            log.append(sim.now)

        worker_ = Coroutine(sim, worker())
        assert worker_.alive and log == []  # the first step is an event, not a call
        sim.run()
        assert log == [0.0, 3.0, 3.0]
        assert not worker_.alive

    def test_exactly_one_event_per_sleep(self):
        sim = Simulator()

        async def worker():
            for _ in range(4):
                await Sleep(1.0)

        Coroutine(sim, worker())
        sim.run()
        assert sim.events_fired == 1 + 4  # the start, then one per sleep
        assert sim.pending_count == 0

    def test_a_coroutine_that_never_sleeps_finishes_inside_its_start_event(self):
        sim = Simulator()
        done = []

        async def worker():
            done.append(sim.now)

        worker_ = Coroutine(sim, worker())
        sim.step()
        assert done == [0.0] and not worker_.alive and sim.pending_count == 0

    def test_start_runs_after_events_already_pending_at_this_instant(self):
        sim = Simulator()
        order = []

        async def worker():
            order.append("coroutine")

        sim.schedule(0.0, order.append, "earlier")
        Coroutine(sim, worker())
        sim.schedule(0.0, order.append, "later")
        sim.run()
        assert order == ["earlier", "coroutine", "later"]

    def test_sleeps_nest_through_awaited_helpers(self):
        sim = Simulator()
        log = []

        async def hop(delay):
            await Sleep(delay)
            return sim.now

        async def worker():
            log.append(await hop(2.0))
            log.append(await hop(5.0))

        Coroutine(sim, worker())
        sim.run()
        assert log == [2.0, 7.0]

    def test_two_coroutines_interleave_in_time_order(self):
        sim = Simulator()
        log = []

        async def ticker(name, period):
            for _ in range(3):
                await Sleep(period)
                log.append((name, sim.now))

        Coroutine(sim, ticker("a", 2.0))
        Coroutine(sim, ticker("b", 3.0))
        sim.run()
        # at t=6 both wake: b's sleep was scheduled (at t=3) before a's (at t=4)
        assert log == [
            ("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0), ("a", 6.0), ("b", 9.0)
        ]


class TestStop:
    def test_stop_cancels_the_pending_event_and_never_resumes(self):
        sim = Simulator()
        log = []

        async def worker():
            try:
                await Sleep(10.0)
                log.append("resumed")  # pragma: no cover - must not happen
            finally:
                log.append("closed")

        worker_ = Coroutine(sim, worker())
        sim.run(until=5.0)
        assert sim.pending_count == 1
        worker_.stop()
        assert log == ["closed"] and not worker_.alive
        assert sim.pending_count == 0  # a cancel: nothing is delivered later
        sim.run()
        assert log == ["closed"] and sim.now == 5.0

    def test_stop_before_the_first_step(self):
        sim = Simulator()
        ran = []

        async def worker():
            ran.append(True)  # pragma: no cover - must not happen

        worker_ = Coroutine(sim, worker())
        worker_.stop()
        sim.run()
        assert ran == [] and sim.events_fired == 0

    def test_stop_is_idempotent_and_harmless_after_the_end(self):
        sim = Simulator()

        async def worker():
            await Sleep(1.0)

        worker_ = Coroutine(sim, worker())
        sim.run()
        worker_.stop()
        worker_.stop()
        assert not worker_.alive


class TestFailure:
    def test_an_exception_surfaces_from_run(self):
        sim = Simulator()

        async def worker():
            await Sleep(2.0)
            raise ValueError("boom")

        worker_ = Coroutine(sim, worker())
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert sim.now == 2.0 and not worker_.alive
        sim.run()  # the kernel is not wedged, and nothing is left of the coroutine
        assert sim.pending_count == 0

    def test_only_a_kernel_sleep_can_be_awaited(self):
        sim = Simulator()

        async def worker():
            await asyncio.sleep(0)  # the event loop's bare yield, not a Sleep

        worker_ = Coroutine(sim, worker())
        with pytest.raises(SimulationError, match="only Sleep"):
            sim.run()
        assert not worker_.alive and sim.pending_count == 0

    def test_a_coroutine_object_is_required(self):
        sim = Simulator()

        async def worker():
            pass  # pragma: no cover - never called

        def generator():
            yield Sleep(1.0)  # pragma: no cover - never stepped

        with pytest.raises(SimulationError, match="did you call"):
            Coroutine(sim, worker)
        with pytest.raises(SimulationError, match="coroutine object"):
            Coroutine(sim, generator())
        assert sim.pending_count == 0

    def test_negative_delay_raises(self):
        for delay in (-1.0, float("nan")):
            with pytest.raises(SimulationError, match="delay must be >= 0"):
                Sleep(delay)

    def test_a_helpers_exception_reaches_its_caller(self):
        """``await helper()`` is the join: what the helper raises arrives
        at the caller's ``await``, where it can be handled."""
        sim = Simulator()
        log = []

        async def helper():
            await Sleep(1.0)
            raise KeyError("lost")

        async def worker():
            try:
                await helper()
            except KeyError:
                log.append(("handled", sim.now))
            await Sleep(1.0)
            log.append(("went on", sim.now))

        Coroutine(sim, worker())
        sim.run()
        assert log == [("handled", 1.0), ("went on", 2.0)]

    def test_an_unhandled_helper_exception_surfaces_from_run(self):
        sim = Simulator()

        async def leaf():
            await Sleep(1.0)
            raise ValueError("deep")

        async def middle():
            await leaf()

        async def worker():
            await middle()

        worker_ = Coroutine(sim, worker())
        with pytest.raises(ValueError, match="deep"):
            sim.run()
        assert not worker_.alive


class TestClockSleep:
    """``clock.sleep`` is how host-agnostic code waits."""

    def test_simclock_sleep_is_the_kernel_sleep(self):
        sim = Simulator()
        sleep = SimClock(sim).sleep(4.0)
        assert type(sleep) is Sleep and sleep.delay == 4.0 and not sleep.daemon

    def test_one_coroutine_two_hosts(self):
        async def waiter(clock, log):
            before = clock.now
            await clock.sleep(50.0)
            log.append(clock.now - before)

        on_kernel, on_loop = [], []
        sim = Simulator()
        Coroutine(sim, waiter(SimClock(sim), on_kernel))
        sim.run()
        assert on_kernel == [50.0]

        # 50 units at 5000 units/s: 10 ms of wall time
        asyncio.run(waiter(WallClock(rate=5000.0), on_loop))
        assert 50.0 <= on_loop[0] < 5000.0
