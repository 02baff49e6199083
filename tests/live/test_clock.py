"""The Clock protocol and its three implementations.

The clock seam is what lets one codebase serve both modes: shared code
reads ``site.clock.now`` and must behave identically whether the value
came from the DES kernel or the wall.  These tests pin the protocol
conformance, the wall clock's unit scaling, and — via hypothesis — that
the SimClock view is monotone non-decreasing across event dispatch.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LiveServiceError
from repro.live.clock import FrozenClock, WallClock
from repro.sim import Clock, SimClock, Simulator


def test_protocol_conformance():
    sim = Simulator()
    for clock in (SimClock(sim), WallClock(rate=10.0), FrozenClock(5.0)):
        assert isinstance(clock, Clock)


def test_simclock_is_a_view_not_a_copy():
    sim = Simulator()
    clock = SimClock(sim)
    assert clock.now == 0.0
    sim.schedule(25.0, lambda: None)
    sim.run()
    assert clock.now == sim.now == 25.0


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=40
    )
)
def test_simclock_monotone_across_dispatch(delays):
    """SimClock.now never decreases over any dispatch sequence.

    Events are scheduled at arbitrary (hypothesis-chosen) offsets from
    arbitrary points in the run; the observed clock sequence at dispatch
    must still be sorted — time only moves forward.
    """
    sim = Simulator()
    clock = SimClock(sim)
    observed = []

    def observe(extra_delay: float) -> None:
        observed.append(clock.now)
        # schedule follow-on work from inside dispatch, like the engine does
        if len(observed) < 2 * len(delays):
            sim.schedule(extra_delay, observe, extra_delay / 2.0)

    for delay in delays:
        sim.schedule(delay, observe, delay)
    sim.run()
    assert observed == sorted(observed)
    assert clock.now == sim.now


def test_wall_clock_units_scale():
    clock = WallClock(rate=1000.0)
    first = clock.now
    time.sleep(0.02)
    second = clock.now
    assert second > first  # monotone, strictly after a real sleep
    # 20ms at 1000 units/s is ~20 units; allow generous scheduler noise
    assert 10.0 < second - first < 2000.0
    assert clock.to_seconds(500.0) == pytest.approx(0.5)
    assert clock.to_units(0.25) == pytest.approx(250.0)


def test_wall_clock_starts_near_zero():
    assert WallClock(rate=1.0).now < 1.0


@pytest.mark.parametrize("rate", [0.0, -1.0, float("inf"), float("nan")])
def test_wall_clock_rejects_bad_rate(rate):
    with pytest.raises(LiveServiceError):
        WallClock(rate=rate)


def test_frozen_clock_advances_manually():
    clock = FrozenClock(100.0)
    assert clock.now == 100.0
    assert clock.advance(5.5) == 105.5
    assert clock.now == 105.5
    with pytest.raises(LiveServiceError):
        clock.advance(-1.0)


def test_frozen_clock_sleeps_by_advancing():
    """The test double's ``sleep`` is one more way of telling it to move:
    no loop, no wait — so a drain polling a ``FrozenClock`` walks straight
    to its grace deadline."""
    clock = FrozenClock(10.0)
    waiting = clock.sleep(2.5)
    assert clock.now == 10.0  # nothing moves until it is awaited
    with pytest.raises(StopIteration):
        waiting.send(None)
    assert clock.now == 12.5
