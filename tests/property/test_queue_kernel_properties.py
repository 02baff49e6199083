"""Property tests: event-queue ordering and kernel clock invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.queue import EventQueue

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestQueueOrdering:
    @given(ts=st.lists(times, min_size=1, max_size=200))
    def test_pop_sequence_is_sorted(self, ts):
        q = EventQueue()
        for t in ts:
            q.push(Event(t, lambda: None))
        popped = [q.pop().time for _ in range(len(ts))]
        assert popped == sorted(ts)

    @given(
        ts=st.lists(times, min_size=1, max_size=100),
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=100),
    )
    def test_cancellation_preserves_order_of_survivors(self, ts, cancel_mask):
        q = EventQueue()
        events = [q.push(Event(t, lambda: None)) for t in ts]
        survivors = []
        for i, event in enumerate(events):
            if cancel_mask[i % len(cancel_mask)]:
                q.cancel(event)
            else:
                survivors.append(event.time)
        popped = [q.pop().time for _ in range(len(survivors))]
        assert popped == sorted(survivors)
        assert q.peek() is None

    @given(ts=st.lists(times, min_size=2, max_size=50))
    def test_fifo_among_equal_times(self, ts):
        q = EventQueue()
        t = ts[0]
        tagged = [q.push(Event(t, lambda: None, tag=str(i))) for i in range(len(ts))]
        popped = [q.pop().tag for _ in range(len(ts))]
        assert popped == [e.tag for e in tagged]


class TestKernelClock:
    @given(ts=st.lists(times, min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_clock_never_goes_backwards(self, ts):
        sim = Simulator()
        observed = []
        for t in ts:
            sim.schedule_at(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert sim.now == max(ts)
        assert sim.events_fired == len(ts)

    @given(
        ts=st.lists(times, min_size=1, max_size=50),
        horizon=times,
    )
    @settings(max_examples=50)
    def test_run_until_fires_exactly_prefix(self, ts, horizon):
        sim = Simulator()
        fired = []
        for t in ts:
            sim.schedule_at(t, fired.append, t)
        sim.run(until=horizon)
        assert sorted(fired) == sorted(t for t in ts if t <= horizon)
        assert sim.now >= horizon
