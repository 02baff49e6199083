"""Unit tests for the Simulator kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator

from tests.oracles import pending_events


class TestScheduling:
    def test_schedule_and_run_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 5.0

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start=10.0)
        fired = []
        sim.schedule_at(12.0, fired.append, "x")
        sim.run()
        assert sim.now == 12.0

    def test_schedule_in_past_raises(self):
        sim = Simulator(start=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(9.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_nan_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_zero_delay_event_fires_at_now(self):
        sim = Simulator(start=3.0)
        seen = []
        sim.schedule(0.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        for t in [3.0, 1.0, 2.0]:
            sim.schedule(t, order.append, t)
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_overrides_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "late", priority=1)
        sim.schedule(1.0, order.append, "early", priority=-1)
        sim.run()
        assert order == ["early", "late"]

    def test_callback_can_schedule_more_events(self):
        sim = Simulator()
        order = []

        def chain(n):
            order.append((sim.now, n))
            if n > 0:
                sim.schedule(1.0, chain, n - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert order == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        sim.cancel(drop)
        sim.run()
        assert fired == ["keep"]
        assert keep.fired and drop.cancelled

    def test_schedule_does_not_go_through_schedule_at(self):
        """A subclass that wraps both entry points wraps each callback once."""
        seen = []

        class Watching(Simulator):
            def schedule_at(self, time, callback, *args, **kwargs):
                seen.append(time)
                return super().schedule_at(time, callback, *args, **kwargs)

        sim = Watching(start=1.0)
        fired = []
        sim.schedule(2.0, fired.append, "a", priority=1, tag="t", daemon=False)
        sim.schedule_at(4.0, fired.append, "b")
        sim.run()
        assert seen == [4.0]
        assert fired == ["a", "b"] and sim.now == 4.0


class TestRun:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0  # clock advanced to the horizon
        sim.run()  # remaining event still fires afterwards
        assert fired == [1, 5]

    def test_run_until_exactly_at_event_time_fires_it(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, 3)
        sim.run(until=3.0)
        assert fired == [3]

    def test_run_on_empty_queue_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0

    def test_run_until_on_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for t in range(5):
            sim.schedule(float(t + 1), fired.append, t)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_max_events_zero_fires_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 0)
        sim.run(max_events=0)
        assert fired == []
        assert sim.now == 0.0 and pending_events(sim) == 1

    def test_negative_max_events_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=-1)
        assert pending_events(sim) == 1
        sim.run()  # the refused call left the simulator runnable
        assert sim.events_fired == 1

    def test_reentrant_run_raises(self):
        sim = Simulator()

        def bad():
            sim.run()

        sim.schedule(1.0, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_returns_event_and_counts(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, tag="a")
        ev = sim.step()
        assert ev.tag == "a" and ev.fired
        assert sim.events_fired == 1

    def test_pending_count(self):
        """A cancelled event stops counting as pending at once."""
        sim = Simulator()
        sim.schedule(4.0, lambda: None)
        cancelled = sim.schedule(2.0, lambda: None)
        assert pending_events(sim) == 2
        sim.cancel(cancelled)
        assert pending_events(sim) == 1


class TestSameInstant:
    """What callbacks may do to the rest of the instant they fire in."""

    def test_lower_priority_number_scheduled_midinstant_fires_first(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "urgent", priority=-1)
            sim.schedule(0.0, order.append, "queued")

        sim.schedule(1.0, first)
        sim.schedule(1.0, order.append, "second")
        sim.schedule(1.0, order.append, "third")
        sim.run()
        assert order == ["first", "urgent", "second", "third", "queued"]
        assert sim.now == 1.0

    def test_callback_cancels_later_event_of_same_instant(self):
        sim = Simulator()
        order = []
        pending = []

        def first():
            order.append("first")
            sim.cancel(doomed)
            pending.append(pending_events(sim))

        sim.schedule(1.0, first)
        doomed = sim.schedule(1.0, order.append, "doomed")
        sim.schedule(1.0, lambda: pending.append(pending_events(sim)))
        sim.schedule(1.0, order.append, "last")
        sim.run()
        assert order == ["first", "last"]
        assert doomed.cancelled
        assert pending == [2, 1]  # the cancelled event stopped counting at once
        assert pending_events(sim) == 0
        assert sim.events_fired == 3

    def test_max_events_midinstant_leaves_rest_pending_in_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule(1.0, order.append, "b", priority=1)
        sim.schedule(1.0, order.append, "c")
        sim.schedule(2.0, order.append, "d")
        sim.run(max_events=1)
        assert order == ["a"]
        assert sim.now == 1.0 and pending_events(sim) == 3
        sim.run()
        assert order == ["a", "c", "b", "d"]
        assert pending_events(sim) == 0


class TestDaemonEvents:
    def test_daemon_alone_does_not_keep_run_alive(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(10.0, tick, daemon=True)

        sim.schedule(10.0, tick, daemon=True)
        sim.run()  # would loop forever if daemons counted as work
        assert fired == []
        assert sim.now == 0.0

    def test_daemon_fires_while_essential_work_remains(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "daemon", daemon=True)
        sim.schedule(5.0, fired.append, "work")
        sim.run()
        assert fired == ["daemon", "work"]

    def test_periodic_daemon_stops_after_last_essential(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.schedule(3.5, lambda: None)  # essential work until t=3.5
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_run_until_fires_daemons_within_horizon(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.run(until=4.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_cancelling_essential_event_releases_daemons(self):
        sim = Simulator()
        keeper = sim.schedule(100.0, lambda: None)
        sim.schedule(1.0, lambda: None, daemon=True)
        sim.cancel(keeper)
        sim.run()
        assert sim.now == 0.0  # nothing essential remained
