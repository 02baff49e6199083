"""Unit tests for events and the pending-event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Event, EventState
from repro.sim.queue import EventQueue


def make(time, priority=0, tag=None):
    return Event(time, lambda: None, priority=priority, tag=tag)


class TestEvent:
    def test_initial_state_is_pending(self):
        e = make(1.0)
        assert e.pending and not e.fired and not e.cancelled
        assert e.state is EventState.PENDING

    # the ordering key is assigned on push: only queued events compare

    def test_ordering_by_time(self):
        q = EventQueue()
        late, early = q.push(make(2.0)), q.push(make(1.0))
        assert early < late
        assert not (late < early)

    def test_ordering_by_priority_at_same_time(self):
        q = EventQueue()
        hi = q.push(Event(1.0, lambda: None, priority=5))
        lo = q.push(Event(1.0, lambda: None, priority=-1))
        assert lo < hi

    def test_ordering_by_seq_as_final_tiebreak(self):
        q = EventQueue()
        first = q.push(make(1.0))
        second = q.push(make(1.0))
        assert first < second

    def test_time_coerced_to_float(self):
        assert isinstance(make(3).time, float)


class TestEventQueue:
    def test_len_and_bool_empty(self):
        q = EventQueue()
        assert len(q) == 0
        assert not q

    def test_push_pop_orders_by_time(self):
        q = EventQueue()
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        for t in times:
            q.push(make(t))
        popped = [q.pop().time for _ in range(len(times))]
        assert popped == sorted(times)

    def test_fifo_among_simultaneous_events(self):
        q = EventQueue()
        events = [q.push(make(1.0, tag=str(i))) for i in range(10)]
        popped = [q.pop() for _ in range(10)]
        assert [e.tag for e in popped] == [e.tag for e in events]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_does_not_remove(self):
        q = EventQueue()
        e = q.push(make(1.0))
        assert q.peek() is e
        assert len(q) == 1

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek() is None

    def test_cancel_removes_from_live_count(self):
        q = EventQueue()
        e = q.push(make(1.0))
        q.push(make(2.0))
        q.cancel(e)
        assert len(q) == 1
        assert q.pop().time == 2.0

    def test_cancelled_head_skipped_by_peek(self):
        q = EventQueue()
        e1 = q.push(make(1.0))
        e2 = q.push(make(2.0))
        q.cancel(e1)
        assert q.peek() is e2

    def test_double_cancel_raises(self):
        q = EventQueue()
        e = q.push(make(1.0))
        q.cancel(e)
        with pytest.raises(SimulationError):
            q.cancel(e)

    def test_cancel_fired_event_raises(self):
        q = EventQueue()
        e = q.push(make(1.0))
        popped = q.pop()
        popped.state = EventState.FIRED
        with pytest.raises(SimulationError):
            q.cancel(e)

    def test_push_non_pending_raises(self):
        q = EventQueue()
        e = make(1.0)
        e.state = EventState.FIRED
        with pytest.raises(SimulationError):
            q.push(e)

    def test_interleaved_push_pop_cancel(self):
        q = EventQueue()
        kept = []
        for i in range(100):
            e = q.push(make(float(i % 17), tag=str(i)))
            if i % 3 == 0:
                q.cancel(e)
            else:
                kept.append(e)
        popped = [q.pop() for _ in range(len(kept))]
        assert not q
        assert sorted(e.tag for e in popped) == sorted(e.tag for e in kept)
        times = [e.time for e in popped]
        assert times == sorted(times)
