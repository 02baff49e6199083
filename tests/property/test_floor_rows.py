"""Scores from rows at their floor against the general expression, by the bytes.

A bounded row whose horizon is 0 and whose raw yield is below ``−bound``
is at its floor: its yield is ``−bound`` at every later clock reading, so
the pool keeps its score terms and the bounded scorers stop recomputing
it (:func:`~repro.scheduling.base.row_scores`).  Its score still
moves while some competitor decays — Eq. 4 counts the live horizons
below its RPT in one merge over the floor rows sorted by RPT — and it
must be the float the general expression gives (:func:`oracle`: the
parent's expression over a hand-built copy of the view, its checks
included) by ``.tobytes()``: a ``±0.0`` decides a whole-pool tie, and a
tie is settled by pool order.

The streams add, remove, probe, block-probe and requeue rows (after a
preemption, or from scratch after a crash) while the clock carries rows
across their floor; every view is scored by FirstPrice, PresentValue or
FirstReward at α ∈ {0, 0.3, 1}, on bounds 0, 25 or a mix, and now and
then by a second heuristic whose key the pool's floor terms were not
written for.  The edge cases pin what a stream rarely draws: a raw yield
of exactly ``−bound`` (``+0.0`` against ``−0.0``), a live horizon equal
to a floor row's RPT, twins, a requeued row in a slot a floor row left,
and an earlier clock reading.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import FirstPrice, FirstReward, PendingPool, PresentValue
from repro.scheduling.base import unit_denominator
from repro.scheduling.pool import _OPEN
from repro.site import ProcessorPool
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction

from tests.oracles import current_yields, running_tasks
from tests.property.test_bounded_scores import general_copy, oracle_scores

RATE = 0.01
HEURISTICS = {
    "firstprice": FirstPrice(),
    "pv": PresentValue(RATE),
    "firstreward0": FirstReward(0.0, RATE),
    "firstreward0.3": FirstReward(0.3, RATE),
    "firstreward1": FirstReward(1.0, RATE),
}
#: a key none of the above writes the floor terms for
SECOND = FirstReward(0.5, 0.02)
BOUNDS = {
    "zero": st.just(0.0),
    "25": st.just(25.0),
    "mixed": st.sampled_from([0.0, 25.0, 25.0, None]),
}


def oracle(heuristic, view, now: float) -> np.ndarray:
    """The heuristic's general expression over a hand-built copy of *view*."""
    if isinstance(heuristic, FirstReward):
        return oracle_scores(view, now, heuristic.alpha, heuristic.discount_rate)
    cols = general_copy(view)
    if isinstance(heuristic, PresentValue):
        pv = current_yields(cols, now) / (1.0 + heuristic.discount_rate * cols.remaining)
        return pv / unit_denominator(cols)
    return current_yields(cols, now) / unit_denominator(cols)


def assert_oracle_bytes(heuristic, view, now: float) -> None:
    got = heuristic.scores(view, now)
    if view.never_expires:  # the affine rows: tests/property/test_affine_scores.py
        return
    want = oracle(heuristic, view, now)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def flagged(pool: PendingPool) -> list[int]:
    """The pool rows flagged at their floor."""
    if not pool._rows.count:
        return []
    return np.flatnonzero(pool._data[_OPEN, : len(pool)] == 0.0).tolist()


def queued(arrival, runtime, value, decay, bound) -> Task:
    task = Task(arrival, runtime, LinearDecayValueFunction(value, decay, bound))
    task.submit()
    task.accept()
    return task


@st.composite
def tasks(draw, bounds, latest: float) -> Task:
    """A queued task on a coarse grid, so RPTs, horizons and weights tie;
    decays such as 0.1 and 0.3 make the order of a sum show in its last bit."""
    return queued(
        max(0.0, latest - draw(st.sampled_from([0.0, 1.0, 5.0, 20.0]))),
        draw(st.sampled_from([1.0, 2.0, 5.0, 10.0, 40.0])),
        draw(st.sampled_from([1.0, 3.0, 10.0, 40.0])),
        draw(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.0])),
        draw(bounds),
    )


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("name", sorted(HEURISTICS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_a_stream_across_the_floor_scores_the_oracle_bytes(name, bounds, data):
    heuristic = HEURISTICS[name]
    pool = PendingPool()
    processors = ProcessorPool(4)
    now = 0.0
    for _ in range(data.draw(st.integers(min_value=5, max_value=30))):
        op = data.draw(st.sampled_from(
            ["add", "burst", "remove", "preempt", "crash", "run", "probe", "union", "wait"]
        ))
        if op == "add" or not pool:
            pool.add(data.draw(tasks(BOUNDS[bounds], now)))
        elif op == "burst":  # enough candidates to mark while rows still decay
            for task in data.draw(st.lists(tasks(BOUNDS[bounds], now), min_size=30, max_size=45)):
                pool.add(task)
        elif op == "remove":
            pool.remove_at(data.draw(st.integers(0, len(pool) - 1)))
        elif op in ("preempt", "crash"):
            task = pool.remove_at(data.draw(st.integers(0, len(pool) - 1)))
            task.start(now)
            if op == "preempt":
                now += data.draw(st.sampled_from([0.0, 0.5])) * task.estimated_remaining
                task.preempt(now)
            else:
                task.crash(now)
            pool.add(task)
        elif op == "run" and processors.free_count:
            task = pool.remove_at(data.draw(st.integers(0, len(pool) - 1)))
            task.start(now)
            processors.assign(task, now)
        elif op == "probe":
            candidate = data.draw(tasks(BOUNDS[bounds], now))
            assert_oracle_bytes(heuristic, pool.probe(candidate), now)
        elif op == "union" and processors.busy_count:
            assert_oracle_bytes(heuristic, processors.union(pool, now), now)
        now += data.draw(st.sampled_from([0.0, 0.5, 3.0, 20.0, 200.0]))
        # a running task never outlives its believed RPT
        for task in running_tasks(processors):
            if task.last_start + task.estimated_remaining < now:
                processors.vacate(task, now)
        if pool:
            assert_oracle_bytes(heuristic, pool.columns(), now)
            if data.draw(st.booleans()):
                assert_oracle_bytes(SECOND, pool.columns(), now)
    assert pool._rows.key in (None, heuristic.affine_key)


@pytest.mark.parametrize("value, bound", [(2.0, 0.0), (5.0, 25.0)])
def test_a_raw_yield_of_exactly_minus_bound_is_not_at_its_floor(value, bound):
    """At delay ``(value + bound) / decay`` the horizon is 0 and the raw
    yield is exactly ``−bound`` — ``+0.0`` against ``−0.0`` for a bound of
    0.  That row is not at its floor (``raw < −bound`` is false), whichever
    zero ``np.maximum`` returns for the tie; one step later it is."""
    heuristic = FirstReward(0.3, RATE)
    pool = PendingPool()
    pool.add(queued(0.0, 1.0, value, 1.0, bound))
    view = pool.columns()
    reached = value + bound  # delay = now at this row: the instant it reaches −bound
    assert view.value[0] - reached * view.decay[0] == -bound
    assert_oracle_bytes(heuristic, view, reached)
    assert not pool._rows.count
    assert_oracle_bytes(heuristic, view, reached + 1.0)
    assert flagged(pool) == [0]
    assert_oracle_bytes(heuristic, view, reached + 2.0)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_a_live_horizon_equal_to_a_floor_rpt_is_counted_below_it(alpha):
    """The merge counts the live horizons at or below each floor RPT, as
    ``searchsorted(h, rpt, side="right")`` does.  A tie counted on the
    wrong side moves the cost only by rounding (``d·h`` against ``R·d``
    with ``h = R``), which these weights make visible at α = 0."""
    heuristic = FirstReward(alpha, RATE)
    live = [(1.0, 0.1), (0.9, 0.3), (2.1, 0.7)]  # (value, decay): horizons v / d
    horizons = [value / decay for value, decay in live]
    pool = PendingPool()
    for rpt in (horizons[0], horizons[0], horizons[1], horizons[2], 7.0):
        # late by 50 at 60: horizon 0, raw yield 1 − 50·0.3 below 0
        pool.add(queued(10.0, rpt, 1.0, 0.3, 0.0))
    assert_oracle_bytes(heuristic, pool.columns(), 60.0)
    assert pool._rows.count == 5  # nothing decays: every row marked
    for value, decay in live:  # not late at 60: their horizon is their expiration
        pool.add(queued(60.0, 100.0, value, decay, 0.0))
    view = pool.columns()
    assert set(view.remaining[pool._rows.ranked()[0]]) >= set(view.expiration[5:])
    assert_oracle_bytes(heuristic, view, 60.0)
    assert pool._rows.count == 5


def test_twins_tied_in_rpt_and_horizon():
    heuristic = FirstReward(0.3, RATE)
    pool = PendingPool()
    for _ in range(2):
        for rpt in (4.0, 4.0, 9.0):
            pool.add(queued(0.0, rpt, 3.0, 0.3, 0.0))
    view = pool.columns()
    assert_oracle_bytes(heuristic, view, 100.0)
    assert pool._rows.count == 6
    rpt = view.remaining[pool._rows.ranked()[0]]
    assert list(rpt) == sorted(rpt)
    for _ in range(2):  # live twins tied in horizon with each other
        pool.add(queued(100.0, 50.0, 4.0, 1.0, 0.0))
        pool.add(queued(100.0, 50.0, 8.0, 2.0, 0.0))
    assert_oracle_bytes(heuristic, pool.columns(), 100.0)
    assert_oracle_bytes(heuristic, pool.columns(), 102.5)


@pytest.mark.parametrize("requeue", ["preempt", "crash", "fresh"])
def test_a_row_written_where_a_floor_row_was_leaves_the_floor(requeue):
    """Removing the last row leaves its floor flag in the spare column; the
    row written there next is not at its floor."""
    heuristic = FirstReward(0.3, RATE)
    pool = PendingPool()
    for rpt in (5.0, 6.0, 7.0):
        pool.add(queued(0.0, rpt, 2.0, 1.0, 0.0))
    assert_oracle_bytes(heuristic, pool.columns(), 50.0)
    assert pool._rows.count == 3
    task = pool.remove_at(2)
    if requeue == "fresh":
        task = queued(50.0, 7.0, 30.0, 1.0, 0.0)
    else:
        task.start(50.0)
        if requeue == "preempt":
            task.preempt(53.0)
        else:
            task.crash(53.0)
    pool.add(task)
    assert pool._rows.count == 2
    for now in (53.0, 55.0, 90.0):
        assert_oracle_bytes(heuristic, pool.columns(), now)
    pool.remove_at(0)  # a floor row ahead of the others: renumbered
    assert_oracle_bytes(heuristic, pool.columns(), 95.0)
    assert_oracle_bytes(heuristic, pool.probe(queued(95.0, 1.0, 9.0, 1.0, 0.0)), 95.0)


def test_an_earlier_clock_reading_takes_the_per_row_path():
    heuristic = FirstReward(0.3, RATE)
    pool = PendingPool()
    for rpt in (5.0, 6.0):
        pool.add(queued(0.0, rpt, 2.0, 1.0, 0.0))
    assert_oracle_bytes(heuristic, pool.columns(), 50.0)
    assert pool._rows.count == 2
    for now in (0.0, 3.0, 50.0, 51.0):
        assert_oracle_bytes(heuristic, pool.columns(), now)


@pytest.mark.parametrize("second", [FirstPrice(), PresentValue(0.02), FirstReward(0.0, RATE)])
def test_a_second_key_takes_the_general_path(second):
    first = FirstReward(0.3, RATE)
    pool = PendingPool()
    for rpt in (5.0, 6.0, 8.0):
        pool.add(queued(0.0, rpt, 2.0, 1.0, 25.0))
    assert_oracle_bytes(first, pool.columns(), 50.0)
    assert pool._rows.count == 3
    pool.add(queued(40.0, 50.0, 20.0, 0.3, 25.0))  # still decays at 50 and 60
    for now in (50.0, 60.0, 500.0):
        assert_oracle_bytes(second, pool.columns(), now)
        assert_oracle_bytes(first, pool.columns(), now)
    assert pool._rows.key == first.affine_key


def test_zero_decay_rows_are_never_at_their_floor():
    """A row that never decays expires at 0, so its horizon is 0 — but its
    raw yield is its value, which a bound never lies above."""
    heuristic = FirstReward(0.3, RATE)
    pool = PendingPool()
    pool.add(queued(0.0, 5.0, 0.0, 0.0, 0.0))
    pool.add(queued(0.0, 5.0, -3.0, 0.0, 3.0))
    pool.add(queued(0.0, 5.0, 4.0, 1.0, 0.0))
    for now in (0.0, 100.0, 1000.0):
        assert_oracle_bytes(heuristic, pool.columns(), now)
    assert flagged(pool) == [2]


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_a_mixed_pool_marks_its_floor_rows(alpha, data):
    """Bounded rows past their floor among unbounded ones and bounded ones
    that still decay: the row form marks them on the first scoring (the
    unbounded rows always decay, so a cost is computed and a full batch
    of candidates is needed), and every view scores the oracle's bytes
    before and after — ``columns()``, a candidate ``probe()`` and the
    preemption pass's ``union()``."""
    heuristic = FirstReward(alpha, RATE)
    now = 1000.0
    grid = dict(
        runtime=st.sampled_from([1.0, 2.0, 5.0, 40.0]),
        value=st.sampled_from([1.0, 3.0, 40.0]),
        decay=st.sampled_from([0.1, 0.3, 1.0, 2.0]),
    )

    def drawn(arrival, bounds, n):
        return [
            queued(arrival, data.draw(grid["runtime"]), data.draw(grid["value"]),
                   data.draw(grid["decay"]), data.draw(bounds))
            for _ in range(n)
        ]

    # late by ~1000: at most 40 − 1000·0.1 = −60, below any floor here
    floor = drawn(0.0, st.sampled_from([0.0, 25.0]), data.draw(st.integers(32, 40)))
    live = drawn(now, st.sampled_from([0.0, 25.0]), data.draw(st.integers(0, 5)))
    unbounded = drawn(data.draw(st.sampled_from([0.0, now])), st.none(), data.draw(st.integers(1, 5)))
    pool = PendingPool()
    for task in data.draw(st.permutations(floor + live + unbounded)):
        pool.add(task)
    running = drawn(now, st.sampled_from([0.0, 25.0, None]), data.draw(st.integers(1, 4)))
    processors = ProcessorPool(len(running))
    for task in running:
        task.start(now)
        processors.assign(task, now)
    candidate = drawn(now, st.sampled_from([0.0, None]), 1)[0]

    view = pool.columns()
    assert 0 < view.expiring < len(view)
    assert_oracle_bytes(heuristic, view, now)
    assert pool._rows.count > 0
    assert set(flagged(pool)) <= {i for i, t in enumerate(pool) if t in floor}
    for later in (now, now + 5.0):
        assert_oracle_bytes(heuristic, pool.columns(), later)
        assert_oracle_bytes(heuristic, pool.probe(candidate), later)
        assert_oracle_bytes(heuristic, processors.union(pool, later), later)
