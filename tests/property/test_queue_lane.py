"""Property tests: the EventQueue's sorted lane vs a reference model.

The queue appends an event that follows the lane's tail (or finds the
lane spent) to a list consumed by a cursor, and heaps everything else;
``peek``/``pop`` take the smaller of the two heads.  These tests drive
interleavings of push/pop/cancel/peek and assert the observable order is
exactly the reference ``(time, priority, seq)`` total order — the lane
must never reorder, duplicate, lose or retain events.
"""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.queue import EventQueue


def make_event(time: float, priority: int = 0, daemon: bool = False) -> Event:
    return Event(time, lambda: None, priority=priority, daemon=daemon)


def key(event: Event) -> tuple[float, int, int]:
    return (event.time, event.priority, event.seq)


def check_against_reference(ops) -> None:
    """Run *ops* on a queue and on a list scanned with ``min``.

    ``("push", time, priority, daemon)``, ``("pop",)``, ``("peek",)`` and
    ``("cancel", x)`` with *x* in [0, 1] the victim's rank in the live
    set's firing order (0 the head, 1 the last to fire).
    """
    queue = EventQueue()
    live: list[Event] = []  # every pushed, uncancelled, unpopped event

    for op, *args in ops:
        if op == "push":
            time, priority, daemon = args
            live.append(queue.push(make_event(time, priority, daemon)))
        elif op == "pop":
            if live:
                popped = queue.pop()
                assert popped is min(live, key=key)
                live.remove(popped)
            else:
                with pytest.raises(SimulationError):
                    queue.pop()
        elif op == "cancel":
            if live:
                victim = sorted(live, key=key)[round(args[0] * (len(live) - 1))]
                queue.cancel(victim)
                live.remove(victim)
        else:  # peek
            assert queue.peek() is (min(live, key=key) if live else None)
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)
        assert queue.essential_count == sum(not e.daemon for e in live)

    # drain: the survivors must come out in exact reference order
    assert [queue.pop() for _ in range(len(live))] == sorted(live, key=key)
    assert not queue and queue.peek() is None


times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
priorities = st.integers(min_value=-2, max_value=2)


def pushes(ts, priority=0, daemon=False):
    return [("push", t, priority, daemon) for t in ts]


#: one event anywhere: the heap's business unless it happens to follow the tail
single = st.builds(lambda t, p, d: [("push", t, p, d)], times, priorities, st.booleans())
#: pushed in firing order: the whole burst is lane
burst = st.lists(times, min_size=2, max_size=30).map(lambda ts: pushes(sorted(ts)))
#: a burst with events that precede its tail pushed in between
interrupted = st.builds(
    lambda ts, cuts: [
        op
        for i, t in enumerate(sorted(ts))
        for op in pushes([t] + [early for at, early in cuts if at == i])
    ],
    st.lists(times, min_size=4, max_size=20),
    st.lists(st.tuples(st.integers(0, 19), times), max_size=6),
)
#: one instant, many events: only the sequence number orders them
equal_run = st.builds(
    lambda t, n, p: pushes([t] * n, priority=p), times, st.integers(2, 12), priorities
)
daemons = st.lists(times, min_size=1, max_size=5).map(
    lambda ts: pushes(sorted(ts), daemon=True)
)
pops = st.integers(1, 12).map(lambda n: [("pop",)] * n)
peek = st.just([("peek",)])
#: at the cursor, in the middle, at the tail — and anywhere else
cancel = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)).map(
    lambda x: [("cancel", x)]
)


def streams(*segments, max_size):
    return st.lists(st.one_of(*segments), min_size=1, max_size=max_size).map(
        lambda parts: [op for part in parts for op in part]
    )


@settings(max_examples=80, deadline=None)
@given(ops=streams(single, pops, cancel, peek, max_size=200))
def test_queue_matches_reference_order(ops):
    check_against_reference(ops)


@settings(max_examples=120, deadline=None)
@given(
    ops=streams(
        burst, interrupted, equal_run, daemons, single, pops, cancel, peek, max_size=40
    )
)
def test_lanes_match_reference_order(ops):
    check_against_reference(ops)


def test_events_pushed_in_order_never_enter_the_heap():
    queue = EventQueue()
    arrivals = [make_event(float(t // 3)) for t in range(300)]  # ties included
    for event in arrivals:
        queue.push(event)
    assert not queue._heap
    assert [queue.pop() for _ in arrivals] == arrivals


def test_spent_lane_takes_the_next_event_whatever_its_time():
    """Schedule-then-pop-next (completion chains, daemon ticks): no heap."""
    queue = EventQueue()
    for t in (5.0, 3.0, 9.0, 1.0):
        event = make_event(t)
        queue.push(event)
        assert queue.pop() is event
        assert not queue._heap


def test_push_pop_chain_stays_ordered_over_a_loaded_lane():
    """The cascade pattern: a near-term chain over parked far-future events."""
    queue = EventQueue()
    parked = [make_event(1e9 + i) for i in range(50)]
    for event in parked:
        queue.push(event)
    for i in range(200):
        near = make_event(float(i))
        queue.push(near)
        assert queue.peek() is near
        assert queue.pop() is near
        assert not queue._heap  # the chain is the heap's only tenant
    assert [queue.pop() for _ in range(50)] == parked  # untouched, in order
    assert not queue


@pytest.mark.parametrize("where", [0, 2, 4], ids=["cursor", "middle", "tail"])
def test_cancelled_lane_entry_is_skipped(where):
    queue = EventQueue()
    lane = [queue.push(make_event(float(t))) for t in range(5)]
    assert not queue._heap
    queue.cancel(lane[where])
    survivors = [e for e in lane if e is not lane[where]]
    assert queue.peek() is survivors[0]
    # a cancelled tail still bounds the lane: what precedes it is heaped
    early = queue.push(make_event(3.5))
    late = queue.push(make_event(7.0))
    expected = sorted(survivors + [early, late], key=key)
    assert [queue.pop() for _ in expected] == expected
    assert not queue


def test_earlier_push_fires_before_the_lane_head():
    queue = EventQueue()
    first = make_event(5.0)
    second = make_event(2.0)
    queue.push(first)
    queue.push(second)  # precedes the tail: heaped, and still first out
    assert queue.pop() is second
    assert queue.pop() is first


def test_ties_fire_in_insertion_order_across_lane_and_heap():
    queue = EventQueue()
    a, late = queue.push(make_event(1.0)), queue.push(make_event(2.0))
    b = queue.push(make_event(1.0))  # heaped: equal time, later seq than a
    c = queue.push(make_event(2.0))  # lane: equal time, later seq than late
    assert [queue.pop() for _ in range(4)] == [a, b, late, c]


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        EventQueue().pop()


def test_essential_count_ignores_daemons_in_the_lane():
    queue = EventQueue()
    queue.push(make_event(1.0, daemon=True))
    assert queue.essential_count == 0
    queue.push(make_event(2.0))
    assert queue.essential_count == 1
    assert queue.pop().daemon
    assert queue.essential_count == 1
    queue.pop()
    assert queue.essential_count == 0


class Payload:
    """Something weakly referenceable for an event to carry."""


@pytest.mark.parametrize("cancelled", [False, True], ids=["fired", "cancelled"])
def test_lane_releases_an_entry_as_the_cursor_passes_it(cancelled):
    """A fired event's args must not stay reachable through the lane.

    A lane that kept consumed entries until it was spent held a whole
    cell's events and tasks until the cyclic collector ran: +32 % peak
    RSS on a 5 000-job grid.
    """
    queue = EventQueue()
    payload = Payload()
    ref = weakref.ref(payload)
    event = queue.push(Event(1.0, lambda p: None, args=(payload,)))
    for t in range(2, 10):
        queue.push(make_event(float(t)))  # the lane stays live throughout
    del payload
    if cancelled:
        queue.cancel(event)
        assert queue.pop().time == 2.0  # skips, and lets go of, the entry
    else:
        assert queue.pop() is event
    assert ref() is not None  # the caller's handle is the last one
    del event
    assert ref() is None


def test_lane_fed_as_fast_as_it_drains_stays_bounded():
    spent = EventQueue()  # push one, pop it: the lane is spent every time
    fed = EventQueue()  # two ahead: the lane is never spent
    fed.push(make_event(0.0))
    fed.push(make_event(0.5))
    for i in range(1, 5000):
        for queue in (spent, fed):
            queue.push(make_event(float(i)))
            assert queue.pop().time <= i
            assert len(queue._lane) <= 200
    assert not spent._heap and not fed._heap
    assert len(spent) == 0 and len(fed) == 2
