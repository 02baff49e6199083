"""State machine: the pool's regime count vs a census of its rows.

:class:`PendingPool` counts the rows whose ``expiration`` is not ``+inf``
and hands every view that count (``expiring``); the kernels read it
instead of re-deriving the regime from the column.  After every
operation — add, remove, a candidate probe, a block probe, growth past
the 64-column backing, preempt-and-requeue — the count must be exactly
what a census of the view's ``expiration`` column says, and every
heuristic must score the view as the same columns without the count (the
general Eq. 4 kernel) do — identically for every derived column, and to
the same ordering and rtol 1e-12 for scores, which the first heuristic
to score a never-expires view computes from the pool's affine rows
(``tests/property/test_affine_scores.py``).  Bounded views are held to
the bytes by ``tests/property/test_bounded_scores.py``.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.scheduling import FirstPrice, FirstReward, PendingPool, PoolColumns, PresentValue
from repro.scheduling.base import decay_horizons, effective_decay
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction
from tests.property.test_affine_scores import assert_same_scores, term_scale
from tests.property.test_pool_incremental import block_rows, rebuilt_columns

HEURISTICS = [
    FirstReward(alpha=0.0, discount_rate=0.01),
    FirstReward(alpha=0.3, discount_rate=0.01),
    FirstReward(alpha=1.0, discount_rate=0.01),
    PresentValue(0.02),
    FirstPrice(),
]

#: (decay, bound) by regime: unbounded -> expiration inf; bounded ->
#: finite; zero decay -> expiration 0.0 whatever the bound; a quotient
#: that overflows -> inf although the bound is finite
REGIMES = {
    "unbounded": st.tuples(st.sampled_from([0.05, 2.0, 100.0]), st.none()),
    "bounded": st.tuples(st.sampled_from([0.05, 2.0, 100.0]), st.sampled_from([0.0, 25.0])),
    "zero_decay": st.tuples(st.just(0.0), st.sampled_from([None, 0.0, 25.0])),
    "overflow": st.tuples(st.just(5e-324), st.sampled_from([0.0, 25.0])),
}


@st.composite
def tasks(draw, regimes=tuple(REGIMES)) -> Task:
    decay, bound = draw(REGIMES[draw(st.sampled_from(regimes))])
    return Task(
        arrival=draw(st.floats(min_value=0.0, max_value=50.0)),
        runtime=draw(st.floats(min_value=0.01, max_value=500.0)),
        vf=LinearDecayValueFunction(draw(st.floats(min_value=0.1, max_value=1e4)), decay, bound),
    )


def block_of(rows: list) -> np.ndarray:
    """``(6, k)`` rows in column-field order: a hand-built view's columns."""
    return np.array(rebuilt_columns(rows))


def check_view(view: PoolColumns, now: float) -> None:
    census = len(view) - int(np.count_nonzero(np.isposinf(view.expiration)))
    assert view.expiring == census
    assert view.never_expires is (census == 0)
    # the column without its count: the general kernels
    general = PoolColumns(
        view.arrival, view.runtime, view.remaining, view.value, view.decay,
        view.bound, view.expiration,
    )
    assert decay_horizons(view, now).tobytes() == decay_horizons(general, now).tobytes()
    assert effective_decay(view, now).tobytes() == effective_decay(general, now).tobytes()
    for heuristic in HEURISTICS:
        alpha = getattr(heuristic, "alpha", 1.0)
        rate = getattr(heuristic, "discount_rate", 0.0)
        assert_same_scores(
            heuristic.scores(view, now),
            heuristic.scores(general, now),
            term_scale(general, now, alpha, rate),
        )


class PoolRegime(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pool = PendingPool()
        self.now = 60.0

    @rule(task=tasks())
    def add(self, task):
        self.pool.add(task)

    @rule(batch=st.lists(tasks(regimes=("unbounded", "overflow")), min_size=70, max_size=70))
    def grow_without_leaving_the_regime(self, batch):
        for task in batch:  # past the 64-column backing in one step
            self.pool.add(task)

    @precondition(lambda self: len(self.pool) > 0)
    @rule(fraction=st.floats(min_value=0.0, max_value=0.999))
    def remove_at(self, fraction):
        self.pool.remove_at(int(fraction * len(self.pool)))

    @precondition(lambda self: len(self.pool) > 0)
    @rule(fraction=st.floats(min_value=0.0, max_value=0.999), done=st.floats(0.1, 0.9))
    def preempt_and_requeue(self, fraction, done):
        task = self.pool.remove_at(int(fraction * len(self.pool)))
        if task.state is TaskState.CREATED:
            task.submit()
            task.accept()
        task.start(0.0)
        task.preempt(task.remaining * done)
        self.pool.add(task)

    @rule(candidate=tasks())
    def probe(self, candidate):
        before = self.pool.columns()
        view = self.pool.probe(candidate)
        assert len(view) == len(self.pool) + 1
        check_view(view, self.now)
        assert self.pool.columns() is before

    @rule(rows=st.lists(tasks(), min_size=1, max_size=80))
    def probe_block(self, rows):
        view = self.pool.probe_block(block_rows(rows))
        assert len(view) == len(self.pool) + len(rows)
        check_view(view, self.now)

    @rule(now=st.floats(min_value=0.0, max_value=1e4))
    def advance(self, now):
        self.now = now

    @invariant()
    def the_count_is_the_census(self):
        check_view(self.pool.columns(), self.now)


PoolRegime.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestPoolRegime = PoolRegime.TestCase


def test_hand_built_columns_derive_the_flag():
    unbounded = [Task(0.0, 5.0, LinearDecayValueFunction(10.0, 1.0)) for _ in range(3)]
    assert PoolColumns(*block_of(unbounded)).never_expires is True
    mixed = [*unbounded, Task(0.0, 5.0, LinearDecayValueFunction(10.0, 1.0, 0.0))]
    assert PoolColumns(*block_of(mixed)).never_expires is False
    assert PoolColumns(*block_of(mixed)).expiring == 1
    assert PoolColumns.empty().never_expires is True
    # a hand-passed expiration column without the pool's count: the
    # general kernels, which are right in every regime
    cols = PoolColumns(*block_of(unbounded), np.full(3, np.inf))
    assert cols.expiring is None and cols.never_expires is False


def test_the_count_survives_removing_the_last_bounded_row():
    pool = PendingPool()
    pool.add(Task(0.0, 5.0, LinearDecayValueFunction(10.0, 1.0)))
    assert pool.columns().never_expires
    bounded = Task(1.0, 5.0, LinearDecayValueFunction(10.0, 1.0, 0.0))
    pool.add(bounded)
    assert not pool.columns().never_expires
    assert not pool.probe(Task(2.0, 5.0, LinearDecayValueFunction(10.0, 1.0))).never_expires
    pool.remove(bounded)
    assert pool.columns().never_expires
    assert pool.probe(bounded).expiring == 1  # the probe row counts, uncommitted
    assert pool.columns().never_expires
    pool.add(bounded)
    assert pool.columns().expiring == len(pool) - 1
    pool.remove_at(0)
    probed = pool.probe(bounded)
    assert probed.expiring == len(probed) == 2  # every horizon finite
