"""State machine: the pool's affine-score rows vs the general scoring path.

Where no row expires, FirstPrice / PresentValue / FirstReward score a pool
view as ``head − slope·max(now − late, 0) − cost·Σd`` from coefficient
rows the pool writes once per row (``PendingPool._write_row``, the scalar
twin) or once per block (``affine_coefficients``, the vector twin: probe
blocks and the rebuild after the pool returns to the never-expires
regime).  After every operation — add, remove, candidate probe, block
probe, preempt-and-requeue, regime flips never-expires → expiring →
never-expires — the pool's rows must equal the vector twin over the same
columns byte for byte, and the heuristic's scores must order the rows
exactly as the row form does on a hand-built copy of the view
(identical argmax and stable argsort) with values within rtol 1e-12 of
the magnitude of the terms each form adds up.
"""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.scheduling import FirstPrice, FirstReward, PendingPool, PoolColumns, PresentValue
from repro.scheduling.base import MIN_REMAINING, affine_coefficients
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction
from tests.property.test_pool_incremental import running_union

ALPHAS = (0.0, 0.3, 1.0)
RATES = (0.0, 0.01)

#: (decay, bound): unbounded and overflowing quotients never expire;
#: bounded and zero-decay rows (expiration 0.0) flip the regime
NEVER_EXPIRES = st.one_of(
    st.tuples(st.sampled_from([1e-3, 0.05, 2.0, 100.0]), st.none()),
    st.tuples(st.just(5e-324), st.sampled_from([0.0, 25.0])),
)
EXPIRING = st.one_of(
    st.tuples(st.sampled_from([0.05, 2.0]), st.sampled_from([0.0, 25.0])),
    st.tuples(st.just(0.0), st.sampled_from([None, 0.0, 25.0])),
)


def expires(task: Task) -> bool:
    decay, bound = task.decay, task.bound
    return decay == 0.0 or (task.value + bound) / decay != math.inf


def heuristics_for(alpha: float, rate: float) -> list:
    """Every heuristic whose score is the ``(alpha, rate)`` affine form."""
    found = [FirstReward(alpha=alpha, discount_rate=rate)]
    if alpha == 1.0:
        found.append(PresentValue(rate))
        if rate == 0.0:
            found.append(FirstPrice())
    return found


def general_view(view: PoolColumns) -> PoolColumns:
    """The same rows as a hand-built view: no pool behind it, so every
    heuristic takes the row form."""
    return PoolColumns(*(np.array(column) for column in (
        view.arrival, view.runtime, view.remaining, view.value, view.decay, view.bound,
    )))


def term_scale(view: PoolColumns, now: float, alpha: float, rate: float) -> np.ndarray:
    """Per row, the magnitude of the terms either form adds up: rounding
    in a difference is relative to its terms, not to the difference."""
    remaining = view.remaining
    denom = np.maximum(remaining, MIN_REMAINING)
    clock = abs(now) + np.abs(view.arrival) + view.runtime + remaining
    gain = (np.abs(view.value) + view.decay * clock) / (1.0 + rate * remaining) / denom
    cost = remaining * float(view.decay.sum()) / denom
    return alpha * gain + (1.0 - alpha) * cost


def assert_same_scores(fast: np.ndarray, general: np.ndarray, scale: np.ndarray) -> None:
    """Values within rtol 1e-12 of *scale*; the same argmax and the same
    stable argsort wherever the general scores are told apart.

    Rows whose general scores lie within that rounding of each other are
    a tie the general form breaks by its own rounding noise (α = 0 over
    equal decays: every such row scores ``d − Σd`` up to how ``R·Σd −
    d·R`` rounds for its ``R``); no other arithmetic reproduces that
    noise, so among them the fast order must still sort the general
    scores, and exact ties — identical rows — keep pool order in both.
    """
    assert fast.shape == general.shape
    # the floor covers products of subnormal decays, which underflow in
    # the scale as well as in the scores
    tolerance = 1e-12 * scale + 1e-300
    assert np.all(np.abs(fast - general) <= tolerance)
    if not len(fast):
        return
    order = np.argsort(-fast, kind="stable")
    expected = np.argsort(-general, kind="stable")
    if np.array_equal(order, expected):
        assert int(np.argmax(fast)) == int(np.argmax(general))
        return
    # only rounding-level ties may reorder: each step of the fast order
    # must not rise in the general scores by more than rounding
    ranked = general[order]
    slack = tolerance[order]
    assert np.all(np.diff(ranked) <= slack[:-1] + slack[1:])
    best = int(np.argmax(general))
    assert general[int(np.argmax(fast))] >= general[best] - 2 * tolerance[best]


def check_affine(view: PoolColumns, now: float, heuristic, alpha: float, rate: float) -> None:
    """The view's coefficient rows are the vector twin's; its scores are
    the row form's."""
    assert view.never_expires
    rows = view.affine((alpha, rate))
    general = general_view(view)
    scores = heuristic.scores(view, now)
    assert rows is not None
    twin = affine_coefficients(
        general.arrival, general.runtime, general.remaining, general.value,
        general.decay, alpha, rate,
    )
    assert np.ascontiguousarray(rows).tobytes() == twin.tobytes()
    assert general.affine((alpha, rate)) is None
    assert_same_scores(
        scores, heuristic.scores(general, now), term_scale(general, now, alpha, rate)
    )


class AffineScores(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pool = PendingPool()
        self.now = 100.0

    @initialize(
        alpha=st.sampled_from(ALPHAS), rate=st.sampled_from(RATES), data=st.data()
    )
    def choose_the_heuristic(self, alpha, rate, data):
        self.alpha, self.rate = alpha, rate
        self.heuristic = data.draw(st.sampled_from(heuristics_for(alpha, rate)))

    def task(self, data, regime=NEVER_EXPIRES) -> Task:
        decay, bound = data.draw(regime)
        return Task(
            # up to a nanosecond in the future: not late yet
            arrival=data.draw(st.floats(min_value=0.0, max_value=self.now + 1e-9)),
            runtime=data.draw(st.floats(min_value=1e-3, max_value=500.0)),
            vf=LinearDecayValueFunction(
                data.draw(st.floats(min_value=0.1, max_value=1e4)), decay, bound
            ),
        )

    @rule(data=st.data(), count=st.integers(min_value=1, max_value=70))
    def add(self, data, count):
        for _ in range(count):  # past the 64-column backing now and then
            self.pool.add(self.task(data))

    @rule(data=st.data())
    def add_expiring(self, data):
        self.pool.add(self.task(data, EXPIRING))

    @precondition(lambda self: len(self.pool) > 0)
    @rule(data=st.data())
    def remove_every_expiring_row(self, data):
        """Back to the never-expires regime (the rebuild's trigger)."""
        for task in self.pool.tasks:
            if expires(task):
                self.pool.remove(task)

    @precondition(lambda self: len(self.pool) > 0)
    @rule(fraction=st.floats(min_value=0.0, max_value=0.999))
    def remove_at(self, fraction):
        self.pool.remove_at(int(fraction * len(self.pool)))

    @precondition(lambda self: len(self.pool) > 0)
    @rule(
        fraction=st.floats(min_value=0.0, max_value=0.999),
        done=st.one_of(st.floats(0.0, 1.0), st.sampled_from([1.0 - 1e-12, 1.0])),
    )
    def preempt_and_requeue(self, fraction, done):
        """A row whose ``late`` is after *now*, its RPT down to zero at most."""
        task = self.pool.remove_at(int(fraction * len(self.pool)))
        if task.state is TaskState.CREATED:
            task.submit()
            task.accept()
        task.start(0.0)
        task.preempt(task.remaining * done)
        self.pool.add(task)

    @rule(data=st.data())
    def probe(self, data):
        view = self.pool.probe(self.task(data))
        if view.never_expires:
            check_affine(view, self.now, self.heuristic, self.alpha, self.rate)

    @rule(data=st.data(), count=st.integers(min_value=1, max_value=20))
    def union(self, data, count):
        view = running_union(self.pool, [self.task(data) for _ in range(count)], self.now)
        if view.never_expires:
            check_affine(view, self.now, self.heuristic, self.alpha, self.rate)

    @rule(now=st.floats(min_value=0.0, max_value=1e4))
    def advance(self, now):
        self.now = now

    @invariant()
    def the_rows_are_the_twin_and_the_scores_the_general_path(self):
        view = self.pool.columns()
        if view.never_expires:
            check_affine(view, self.now, self.heuristic, self.alpha, self.rate)


AffineScores.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestAffineScores = AffineScores.TestCase


def test_a_second_key_takes_the_general_path():
    pool = PendingPool()
    for i in range(3):
        pool.add(Task(float(i), 5.0, LinearDecayValueFunction(10.0 + i, 1.0)))
    view = pool.columns()
    assert FirstReward(0.3, 0.01).scores(view, 9.0) is not None
    assert view.affine((0.3, 0.01)) is not None
    assert view.affine((1.0, 0.0)) is None  # the elastic pricer's key
    general = general_view(view)
    assert_same_scores(
        FirstPrice().scores(view, 9.0),
        FirstPrice().scores(general, 9.0),
        term_scale(general, 9.0, 1.0, 0.0),
    )


def test_on_time_rows_tie_as_in_the_general_form():
    """Rows that differ only in when they start being late score the same
    while neither is late — bit for bit, as the general form has it."""
    pool = PendingPool()
    for arrival in (0.1, 0.7, 3.3):
        task = Task(arrival, 10.0, LinearDecayValueFunction(50.0, 0.3))
        task.submit()
        task.accept()
        task.start(arrival)
        task.preempt(arrival + 9.0)  # RPT 1: late from arrival + 9
        pool.add(task)
    for heuristic in (FirstReward(0.3, 0.01), FirstReward(0.0, 0.0)):
        fresh = PendingPool()
        for task in pool:
            fresh.add(task)
        scores = heuristic.scores(fresh.columns(), 5.0)
        general = heuristic.scores(general_view(fresh.columns()), 5.0)
        assert scores[0] == scores[1] == scores[2]
        assert general[0] == general[1] == general[2]
