"""State machine: the pool's rows at their floor vs a recount from the rows.

:class:`PendingPool` keeps a second count beside ``_expiring``: the rows
a bounded scorer found at their floor — their indices sorted by RPT
(``order``) beside their clock-free terms, and a flag row and a score
row (see :mod:`repro.scheduling.pool`).  After every operation — add, remove, a
preempt or crash requeue, a candidate probe, a block probe, scoring by
the key the terms are written for or by another one, the clock moving —
the bookkeeping must agree with the rows themselves:

* the count is the number of flagged rows; unless the sorted arrays
  went stale on a mark (they are rebuilt from the flags when a scorer
  needs them), the flags are exactly the rows in ``order``, which is
  sorted by the rows' RPT, and ``floor`` holds the terms in that order;
* every flagged row is at its floor at the latest mark's clock reading
  (horizon 0, raw yield below ``−bound``), and its stored terms are what
  the bound key makes of its row, bit for bit;
* flags come and go only as rows do: an operation that scores nothing
  keeps every flagged task flagged unless it left the pool, and a scoring
  flags only tasks at their floor — every one of them, when nothing in
  the view still decays.

A pool that never expires must never write or shift floor state.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.scheduling import FirstPrice, FirstReward, PendingPool, PresentValue
from repro.scheduling.base import MIN_REMAINING, decay_horizons, effective_decay
from repro.scheduling.pool import _FLOOR_SCORE, _OPEN
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction
from tests.property.test_bounded_scores import general_copy
from tests.property.test_pool_incremental import running_union

KEYED = FirstReward(0.3, 0.01)
OTHER = FirstPrice()


#: A task's draw: (lag behind the clock at arrival, runtime, value, decay, bound).
def specs(bounds=(0.0, 25.0)):
    return st.tuples(
        st.sampled_from([0.0, 2.0, 30.0]),
        st.sampled_from([1.0, 5.0, 20.0]),
        st.sampled_from([1.0, 10.0, 50.0]),
        st.sampled_from([0.0, 0.3, 2.0]),
        st.sampled_from(bounds),
    )


def make(spec, now: float) -> Task:
    lag, runtime, value, decay, bound = spec
    task = Task(max(0.0, now - lag), runtime, LinearDecayValueFunction(value, decay, bound))
    task.submit()
    task.accept()
    return task


def floor_of(pool: PendingPool) -> list[Task]:
    """The tasks the pool holds flagged at their floor, in pool order."""
    if not pool._rows.count:
        return []
    flags = pool._data[_OPEN, : len(pool)]
    return [pool.task_at(int(i)) for i in np.flatnonzero(flags == 0.0)]


def at_floor(view, now: float) -> np.ndarray:
    """Recount: the rows of *view* at their floor at *now*."""
    cols = general_copy(view)
    delays = np.maximum(0.0, now + cols.remaining - cols.arrival - cols.runtime)
    raw = cols.value - delays * cols.decay
    return (decay_horizons(cols, now) == 0.0) & (raw < -cols.bound)


class FloorCensus(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pool = PendingPool()
        self.now = 0.0
        self.flagged: list[Task] = []

    def score(self, heuristic, view) -> None:
        before = floor_of(self.pool)
        heuristic.scores(view, self.now)
        after = floor_of(self.pool)
        gained = [t for t in after if t not in before]
        assert all(t in after for t in before)
        if gained:
            assert heuristic.affine_key == self.pool._rows.key
        pending = len(self.pool)
        floor = at_floor(self.pool.columns(), self.now)
        assert all(floor[self.pool.tasks.index(t)] for t in gained)
        keyed = self.pool._rows.key in (None, heuristic.affine_key)
        nothing_decays = not np.count_nonzero(effective_decay(general_copy(view), self.now))
        if keyed and view.expiring == len(view) and self.now >= self.pool._rows.since:
            if nothing_decays:
                assert [self.pool.task_at(i) for i in np.flatnonzero(floor)] == after
        assert len(after) <= pending
        self.flagged = after

    @rule(spec=specs())
    def add(self, spec):
        self.pool.add(make(spec, self.now))

    @rule(batch=st.lists(specs(), min_size=30, max_size=40))
    def add_many(self, batch):
        for spec in batch:
            self.pool.add(make(spec, self.now))

    @rule(spec=specs(bounds=(None,)))
    def add_unbounded(self, spec):
        self.pool.add(make(spec, self.now))

    @rule()
    def remove_the_unbounded(self):
        for task in [t for t in self.pool if t.vf.penalty_bound is None]:
            self.pool.remove(task)

    @precondition(lambda self: len(self.pool) > 0)
    @rule(fraction=st.floats(min_value=0.0, max_value=0.999))
    def remove_at(self, fraction):
        task = self.pool.remove_at(int(fraction * len(self.pool)))
        self.flagged = [t for t in self.flagged if t is not task]

    @precondition(lambda self: len(self.pool) > 0)
    @rule(fraction=st.floats(min_value=0.0, max_value=0.999), done=st.sampled_from([0.0, 0.5]),
          crash=st.booleans())
    def requeue(self, fraction, done, crash):
        task = self.pool.remove_at(int(fraction * len(self.pool)))
        self.flagged = [t for t in self.flagged if t is not task]
        task.start(self.now)
        if crash:
            task.crash(self.now)
        else:
            task.preempt(self.now + done * task.estimated_remaining)
        self.pool.add(task)

    @precondition(lambda self: len(self.pool) > 0)
    @rule(spec=specs())
    def probe(self, spec):
        self.score(KEYED, self.pool.probe(make(spec, self.now)))

    @precondition(lambda self: len(self.pool) > 0)
    @rule(rows=st.lists(specs(), min_size=1, max_size=5))
    def union(self, rows):
        running = [make(spec, self.now) for spec in rows]
        self.score(KEYED, running_union(self.pool, running, self.now))

    @precondition(lambda self: len(self.pool) > 0)
    @rule()
    def score_columns(self):
        self.score(KEYED, self.pool.columns())

    @precondition(lambda self: len(self.pool) > 0)
    @rule()
    def score_with_another_key(self):
        self.score(OTHER, self.pool.columns())

    @rule(step=st.sampled_from([0.5, 5.0, 50.0]))
    def advance(self, step):
        self.now += step

    @rule(now=st.floats(min_value=0.0, max_value=100.0))
    def rewind(self, now):
        self.now = min(self.now, now)

    @precondition(lambda self: self.pool._rows.count)
    @rule()
    def rank(self):
        """What a scorer does when the sorted arrays went stale."""
        self.pool._rows.ranked()

    @invariant()
    def the_bookkeeping_is_the_recount(self):
        pool = self.pool
        state = pool._rows
        data = pool._data
        n = len(pool)
        assert floor_of(pool) == self.flagged  # only marks and removals move flags
        if not state.count:
            return
        assert set(np.unique(data[_OPEN, :n]).tolist()) <= {0.0, 1.0}
        assert (data[_OPEN, n:] == 1.0).all()  # spare columns: probes need no flag
        flagged = np.flatnonzero(data[_OPEN, :n] == 0.0)
        assert state.count == len(flagged)
        view = pool.columns()
        assert at_floor(view, state.since)[flagged].all()
        alpha, rate = state.key
        # a row strictly below its floor yields exactly −bound
        apv = alpha * (-view.bound[flagged] / (1.0 + rate * view.remaining[flagged]))
        denom = np.maximum(view.remaining[flagged], MIN_REMAINING)
        assert data[_FLOOR_SCORE, flagged].tobytes() == (apv / denom).tobytes()
        if state.stale:  # rebuilt from the flags when a scorer asks
            return
        order = state.order
        assert sorted(order.tolist()) == flagged.tolist()
        rpt = view.remaining[order]
        assert (np.diff(rpt) >= 0.0).all()
        ranked = np.argsort(order)  # flagged (pool) order -> sorted position
        assert state.floor.shape == (3, len(order))
        assert state.floor[0, ranked].tobytes() == apv.tobytes()
        assert state.floor[1, ranked].tobytes() == denom.tobytes()
        assert state.floor[2].tobytes() == rpt.tobytes()


FloorCensus.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestFloorCensus = FloorCensus.TestCase


def test_a_pool_that_never_expires_writes_and_shifts_no_floor_state():
    """Every row unbounded: the two floor rows of the backing array keep
    the bytes they were poisoned with through adds, removals, requeues,
    probes and every heuristic's scoring."""
    rng = np.random.default_rng(0)
    pool = PendingPool()
    poison = rng.random((_FLOOR_SCORE + 1, pool._data.shape[1]))
    pool._data[: _FLOOR_SCORE + 1] = poison
    heuristics = [KEYED, FirstReward(0.0, 0.01), PresentValue(0.02), OTHER]
    now = 0.0
    for step in range(60):
        task = Task(float(step), 1.0 + step % 7, LinearDecayValueFunction(10.0 + step, 0.5))
        task.submit()
        task.accept()
        pool.add(task)
        if step % 3 == 2:
            moved = pool.remove_at(step % len(pool))
            moved.start(now)
            moved.preempt(now)
            pool.add(moved)
        if step % 4 == 3:
            pool.remove_at(0)
        now += 7.0
        for heuristic in heuristics:
            heuristic.scores(pool.columns(), now)
            heuristic.scores(pool.probe(task), now)
            heuristic.scores(running_union(pool, [task, moved if step > 2 else task], now), now)
        assert pool._data.shape[1] == poison.shape[1]  # no growth: the bytes are comparable
        assert pool._data[: _FLOOR_SCORE + 1].tobytes() == poison.tobytes()
        assert not pool._rows.count and not pool._rows.order.size
