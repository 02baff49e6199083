"""FirstReward on bounded pool views against the general expression, by the bytes.

Where every row of a pool view can expire, FirstReward checks Eq. 4's
inputs at the row write, skips the cost kernel when no competitor still
decays, and subtracts the self-term on the decaying rows only.  Those
rows are exactly the ones a whole-pool tie can hinge on: once every row
has expired each score is ``α·PV/RPT`` with a ``±0.0`` cost, and the
dispatch ``argmax`` is settled by pool order — so the scores must equal
the expression they had before (:func:`oracle_scores`: Eq. 3's present
value less the general Eq. 4 kernel, its checks included, over a
hand-built copy of the view) by ``.tobytes()``, not to a tolerance.  The pools draw α ∈ {0, 0.3, 1}, penalty bounds 0,
25 or a mix with unbounded rows, and clocks at which every row, no row
or some rows still decay; each is scored through ``columns()``, a
candidate ``probe()`` and the preemption pass's ``probe_block()`` of a
processor pool's running block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.scheduling import FirstPrice, FirstReward, PendingPool, PoolColumns
from repro.scheduling.base import decay_horizons, effective_decay, unit_denominator
from repro.scheduling.cost import opportunity_costs
from repro.scheduling.presentvalue import present_values
from repro.site import ProcessorPool
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction


def general_copy(view: PoolColumns) -> PoolColumns:
    """*view*'s rows as a hand-built view: no pool behind it, so every
    derived vector and the cost take their general form."""
    return PoolColumns(*(np.array(column) for column in (
        view.arrival, view.runtime, view.remaining, view.value, view.decay, view.bound,
    )))


def oracle_scores(view: PoolColumns, now: float, alpha: float, rate: float) -> np.ndarray:
    """FirstReward's bounded expression before the count: Eq. 3's present
    value less the general Eq. 4 kernel, its checks included."""
    cols = general_copy(view)
    pv = present_values(cols, now, rate)
    denom = unit_denominator(cols)
    if alpha == 1.0:
        return pv / denom
    cost = opportunity_costs(
        cols.remaining, effective_decay(cols, now), decay_horizons(cols, now)
    )
    return (alpha * pv - (1.0 - alpha) * cost) / denom


ALPHAS = (0.0, 0.3, 1.0)
RATES = (0.0, 0.01)
#: penalty bounds: one bound for every row, or a mix with unbounded rows
BOUNDS = {
    "zero": st.just(0.0),
    "25": st.just(25.0),
    "mixed": st.sampled_from([None, 0.0, 25.0]),
}
#: when the pool is scored: before anything is late (every row with a
#: decay still decays), long after every horizon (none does), or anywhere
CLOCKS = ("all_live", "none_live", "some_live")


@st.composite
def tasks(draw, bounds, decays, started_by=None):
    """A task; preempted part-way through now and then (RPT < runtime), or
    running since a start at or before *started_by*."""
    latest = 100.0 if started_by is None else min(100.0, started_by)
    arrival = draw(st.floats(min_value=0.0, max_value=latest))
    runtime = draw(st.floats(min_value=0.01, max_value=200.0))
    vf = LinearDecayValueFunction(
        draw(st.floats(min_value=0.1, max_value=1e4)), draw(decays), draw(bounds)
    )
    task = Task(arrival, runtime, vf)
    task.submit()
    task.accept()
    if started_by is not None:
        task.start(draw(st.floats(min_value=arrival, max_value=started_by)))
    elif draw(st.booleans()):
        task.start(arrival)
        task.preempt(arrival + runtime * draw(st.floats(min_value=0.0, max_value=1.0)))
    return task


def assert_bit_equal(view: PoolColumns, now: float, alpha: float, rate: float) -> None:
    got = FirstReward(alpha, rate).scores(view, now)
    want = oracle_scores(view, now, alpha, rate)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("clock", CLOCKS)
@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("alpha", ALPHAS)
@given(data=st.data(), rate=st.sampled_from(RATES))
@settings(max_examples=12, deadline=None)
def test_columns_probe_and_block_views_score_the_oracle_bytes(alpha, bounds, clock, data, rate):
    decays = st.sampled_from([0.05, 2.0, 100.0] if clock == "all_live" else [0.0, 0.05, 2.0])
    queued = data.draw(st.lists(tasks(BOUNDS[bounds], decays), min_size=1, max_size=60))
    # twins tie in horizon: a copy, or twice the value and decay (the
    # same (value + bound) / decay, a different weight) — which of them
    # the stable sort puts first moves the prefix sums' last bit
    for i in data.draw(st.lists(st.integers(0, len(queued) - 1), max_size=20)):
        vf, scale = queued[i].vf, data.draw(st.sampled_from([1.0, 2.0]))
        bound = vf.penalty_bound
        twin = Task(queued[i].arrival, queued[i].runtime, LinearDecayValueFunction(
            scale * vf.value + (scale - 1.0) * (bound or 0.0), scale * vf.decay, bound
        ))
        twin.submit()
        twin.accept()
        queued.insert(data.draw(st.integers(0, len(queued))), twin)
    if clock == "all_live":
        now = min(t.arrival for t in queued)
    elif clock == "none_live":
        now = 1e9
    else:
        now = data.draw(st.floats(min_value=0.0, max_value=1e3))
    pool = PendingPool()
    for task in queued:
        pool.add(task)
    running = data.draw(st.lists(
        tasks(BOUNDS[bounds], decays, started_by=now), min_size=1, max_size=16
    ))
    processors = ProcessorPool(len(running))
    for task in running:
        processors.assign(task, task.last_start)
    _, block = processors.running_rows(now)
    candidate = data.draw(tasks(BOUNDS[bounds], decays))

    views = {
        "columns": pool.columns,
        "probe": lambda: pool.probe(candidate),
        "probe_block": lambda: pool.probe_block(block),
    }
    # which view binds the write-time check to the pool varies
    for name in data.draw(st.permutations(sorted(views))):
        view = views[name]()
        if bounds != "mixed":
            assert view.expiring == len(view)
            live = np.count_nonzero(effective_decay(general_copy(view), now))
            if clock == "none_live":
                assert live == 0
            elif clock == "all_live" and name == "columns":
                assert live == len(view)
        if view.expiring:  # the never-expires rows: test_affine_scores.py
            assert_bit_equal(view, now, alpha, rate)


@given(
    bound=st.sampled_from([0.0, 25.0]),
    now=st.floats(min_value=0.0, max_value=1e3),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_a_pool_scored_as_it_changes_keeps_the_bytes(bound, now, data):
    """Adds, removals and requeues between scorings: the rows written after
    the check was bound, and the ones shifted by ``remove_at``."""
    alpha = data.draw(st.sampled_from([0.0, 0.3]))
    pool = PendingPool()
    decays = st.sampled_from([0.0, 0.05, 2.0])
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        for task in data.draw(st.lists(tasks(st.just(bound), decays), max_size=30)):
            pool.add(task)
        for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
            if len(pool) > 1:
                fraction = data.draw(st.floats(min_value=0.0, max_value=0.999))
                pool.remove_at(int(fraction * len(pool)))
        if pool:
            now += data.draw(st.floats(min_value=0.0, max_value=50.0))
            assert_bit_equal(pool.columns(), now, alpha, 0.01)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_tied_horizons_sum_in_pool_order(alpha):
    """Rows tied in horizon with different weights: the stable sort keeps
    them in pool order, and that order fixes the prefix sums' last bit —
    ``(0.1 + 0.2) + 0.3`` is not ``(0.3 + 0.2) + 0.1``.  Value = decay with
    a bound of 0 makes every horizon exactly 1 while nothing is late."""
    pool = PendingPool()
    for decay in (0.1, 0.2, 0.3, 0.0):
        pool.add(Task(0.0, 1.0, LinearDecayValueFunction(decay or 1.0, decay, 0.0)))
    view = pool.columns()
    assert np.array_equal(decay_horizons(view, 0.0), [1.0, 1.0, 1.0, 0.0])
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert_bit_equal(view, 0.0, alpha, 0.01)


# ----------------------------------------------------------------------
# The check at the write: the kernel's error, where and when it was
# ----------------------------------------------------------------------
def bounded(arrival, rpt=None):
    task = Task(arrival, 5.0, LinearDecayValueFunction(10.0, 1.0, 0.0))
    if rpt is not None:
        task.estimated_remaining = rpt
    return task


def test_a_negative_rpt_raises_as_the_general_kernel_does():
    pool = PendingPool()
    pool.add(bounded(0.0))
    pool.add(bounded(1.0, rpt=-1.0))  # written before any check was bound
    for scorer in (
        lambda view: FirstReward(0.3, 0.01).scores(view, 2.0),
        lambda view: oracle_scores(view, 2.0, 0.3, 0.01),
    ):
        with pytest.raises(SchedulingError, match="^cost inputs must be non-negative$"):
            scorer(pool.columns())


def test_after_the_first_scoring_the_write_raises():
    pool = PendingPool()
    for i in range(3):
        pool.add(bounded(float(i)))
    FirstReward(0.3, 0.01).scores(pool.columns(), 4.0)  # binds the check
    with pytest.raises(SchedulingError, match="^cost inputs must be non-negative$"):
        pool.add(bounded(4.0, rpt=-1.0))
    with pytest.raises(SchedulingError, match="^cost inputs must be non-negative$"):
        pool.probe(bounded(4.0, rpt=-1.0))
    block = np.array([[0.0], [5.0], [-1.0], [10.0], [1.0], [0.0], [10.0]])
    with pytest.raises(SchedulingError, match="^cost inputs must be non-negative$"):
        pool.probe_block(block)
    assert len(pool) == 3  # nothing was committed


def test_a_pool_without_a_cost_term_never_checks():
    """FirstPrice (no Eq. 4) binds nothing: a negative RPT is left for the
    candidate projection to report in its own words."""
    pool = PendingPool()
    for i in range(3):
        pool.add(bounded(float(i)))
    FirstPrice().scores(pool.columns(), 4.0)
    FirstReward(1.0, 0.01).scores(pool.columns(), 4.0)  # α = 1: no cost term
    view = pool.probe(bounded(4.0, rpt=-1.0))
    assert view.remaining[-1] == -1.0
