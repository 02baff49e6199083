"""The single-score preemption pass against the rescoring loop it replaced.

The engine scores ``pending ∪ running`` once per pass and replays the
swaps on that vector.  The loop it replaced re-built and re-scored the
union after every swap; it lives on here as the oracle.  Both run the same
arrivals (and the same node crash) on twin sites, and every pass must
leave the same ``(victim tid, winner tid)`` swaps, the same running set
in slot order and the same pool order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.scheduling import FirstPrice, FirstReward, PendingPool, PresentValue
from repro.scheduling.base import PoolColumns, SchedulingHeuristic
from repro.sim import Simulator
from repro.site import TaskServiceSite
from repro.site.service import _PREEMPT_EPS
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction

from tests.oracles import running_tasks
from tests.property.test_pool_incremental import running_union


HEURISTICS = {
    "firstprice": FirstPrice,
    "pv": lambda: PresentValue(0.02),
    "firstreward0": lambda: FirstReward(alpha=0.0, discount_rate=0.01),
    "firstreward0.3": lambda: FirstReward(alpha=0.3, discount_rate=0.01),
}


class LoggedSite(TaskServiceSite):
    """A site that logs what every preemption pass did."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        self._victim = None

    def _preempt(self, task):
        super()._preempt(task)
        self._victim = task.tid

    def _start(self, task):
        super()._start(task)
        if self._victim is not None:  # a start inside a swap: the winner
            self.log.append(("swap", self.clock.now, self._victim, task.tid))
            self._victim = None

    def _schedule_pass(self):
        super()._schedule_pass()
        self.log.append((
            "pass", self.clock.now,
            [t.tid for t in running_tasks(self.processors)],
            [t.tid for t in self.pool],
        ))


class RescoringSite(LoggedSite):
    """The oracle: the loop that re-scores the union after every swap."""

    def _preemption_pass(self):
        now = self.clock.now
        guard = len(self.pool) + self.processors.count + 1
        while self.pool:
            running = running_tasks(self.processors)
            if not running:
                return
            remaining = [
                max(0.0, t.estimated_remaining - (now - t.last_start)) for t in running
            ]
            pending = self.pool.columns()
            n_pending = len(self.pool)
            union = PoolColumns(
                np.concatenate([pending.arrival, [t.arrival for t in running]]),
                np.concatenate([pending.runtime, [t.estimate for t in running]]),
                np.concatenate([pending.remaining, remaining]),
                np.concatenate([pending.value, [t.value for t in running]]),
                np.concatenate([pending.decay, [t.decay for t in running]]),
                np.concatenate([pending.bound, [t.bound for t in running]]),
            )
            scores = self.heuristic.scores(union, now)
            pending_scores = scores[:n_pending]
            running_scores = scores[n_pending:]
            best_pending = int(np.argmax(pending_scores))
            worst_running = int(np.argmin(running_scores))
            margin = _PREEMPT_EPS * (1.0 + abs(running_scores[worst_running]))
            if pending_scores[best_pending] <= running_scores[worst_running] + margin:
                return
            self._preempt(running[worst_running])
            self._start(self.pool.remove_at(best_pending))
            guard -= 1
            assert guard > 0


def run_logged(cls, rows, heuristic, processors, crash=None):
    """Feed *rows* ``(arrival, runtime, value, decay, bound)`` to a *cls* site."""
    sim = Simulator()
    site = cls(sim, processors, heuristic, preemption=True)
    for tid, (arrival, runtime, value, decay, bound) in enumerate(rows):
        task = Task(arrival, runtime, LinearDecayValueFunction(value, decay, bound), tid=tid)
        sim.schedule_at(arrival, site.submit, task)
    if crash is not None:
        at, node, repair_after = crash
        sim.schedule_at(at, site.crash_node, node)
        sim.schedule_at(at + repair_after, site.repair_node, node)
    sim.run()
    assert site.all_work_done()
    return site


def assert_same_passes(rows, heuristic_name, processors, crash=None):
    build = HEURISTICS[heuristic_name]
    single = run_logged(LoggedSite, rows, build(), processors, crash)
    oracle = run_logged(RescoringSite, rows, build(), processors, crash)
    assert single.log == oracle.log
    assert single.ledger.preemptions == oracle.ledger.preemptions
    return single


#: task shapes drawn from a small grid and then repeated: groups of
#: identical tasks tie exactly, within the pool and across pool and nodes
shapes = st.tuples(
    st.sampled_from([0.5, 2.0, 7.0, 30.0]),            # runtime
    st.sampled_from([1.0, 40.0, 400.0, 5000.0]),       # value
    st.sampled_from([0.0, 0.5, 10.0, 100.0]),          # decay
)


@st.composite
def arrivals(draw, bounded):
    """Bursty rows: few distinct instants, few distinct shapes, deep pools."""
    palette = draw(st.lists(shapes, min_size=1, max_size=5))
    bound = draw(st.sampled_from([0.0, 25.0])) if bounded else None
    n = draw(st.integers(min_value=1, max_value=40))
    rows = []
    for _ in range(n):
        runtime, value, decay = draw(st.sampled_from(palette))
        arrival = float(draw(st.integers(min_value=0, max_value=12)))
        rows.append((arrival, runtime, value, decay, bound))
    rows.sort(key=lambda row: row[0])
    return rows


class TestAgainstTheRescoringLoop:
    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    @pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
    @given(data=st.data(), processors=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_same_swaps_running_set_and_pool_order(self, heuristic, bounded, data, processors):
        rows = data.draw(arrivals(bounded))
        assert_same_passes(rows, heuristic, processors)

    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    @given(
        data=st.data(),
        crash_at=st.floats(min_value=0.0, max_value=15.0),
        repair_after=st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_passes_around_a_crashed_node(self, heuristic, data, crash_at, repair_after):
        rows = data.draw(arrivals(bounded=True))
        node = data.draw(st.integers(min_value=0, max_value=2))
        assert_same_passes(rows, heuristic, 3, crash=(crash_at, node, repair_after))

    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    def test_identical_tasks_never_swap(self, heuristic):
        rows = [(0.0, 5.0, 100.0, 2.0, None)] * 12
        site = assert_same_passes(rows, heuristic, 2)
        assert site.ledger.preemptions == 0

    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    def test_pool_at_exactly_its_backing_capacity(self, heuristic):
        # 2 running + 64 pending at one instant: the pass that sees the 64th
        # pending task has no spare column left for the running block
        capacity = PendingPool()._data.shape[1]
        rows = [(0.0, 30.0, 10.0, 0.1, None)] * 2
        rows += [(0.0, 2.0 + i % 5, 50.0 + 7 * (i % 11), 1.0 + i % 3, None)
                 for i in range(capacity)]
        site = assert_same_passes(rows, heuristic, 2)
        full = [entry for entry in site.log
                if entry[0] == "pass" and len(entry[3]) == capacity]
        assert full, "no pass ran on a pool of exactly the initial capacity"
        assert site.pool._data.shape[1] > capacity
        assert site.ledger.preemptions > 0

    def test_block_probe_grows_a_full_pool_and_commits_nothing(self):
        pool = PendingPool()
        capacity = pool._data.shape[1]
        for i in range(capacity):
            pool.add(Task(float(i), 3.0, LinearDecayValueFunction(10.0, 1.0)))
        before = [np.array(col) for col in
                  (pool.columns().arrival, pool.columns().remaining)]
        running = [Task(float(i), 2.0, LinearDecayValueFunction(6.0, 8.0, 10.0 + i))
                   for i in range(2)]
        union = running_union(pool, running, 1.0)
        assert len(union) == capacity + 2 and len(pool) == capacity
        assert union.arrival[-2:].tolist() == [0.0, 1.0]
        assert union.bound[-2:].tolist() == [10.0, 11.0]
        assert np.array_equal(pool.columns().arrival, before[0])
        assert np.array_equal(pool.columns().remaining, before[1])
        with pytest.raises(ValueError):
            union.arrival[0] = 1.0  # read-only, like every view


class CountingHeuristic(SchedulingHeuristic):
    """FirstPrice that counts its ``scores()`` calls."""

    name = "counting"

    def __init__(self):
        self.inner = FirstPrice()
        self.calls = 0

    def scores(self, cols, now):
        self.calls += 1
        return self.inner.scores(cols, now)


def loaded_site(n_running, n_pending, processors=2):
    """A site holding that many running and queued tasks, at t=1, no pass run."""
    sim = Simulator()
    spy = CountingHeuristic()
    site = TaskServiceSite(sim, processors, spy)  # preemption off while loading
    for i in range(n_running):
        site.submit(Task(0.0, 50.0, LinearDecayValueFunction(10.0 + i, 0.1)))
    sim.run(until=1.0)
    for node in range(n_running, processors):
        site.crash_node(node)  # idle nodes down, so the queue stays queued
    for i in range(n_pending):
        site.submit(Task(1.0, 2.0, LinearDecayValueFunction(500.0 + i, 0.1)))
    assert (site.running_count, site.queue_length) == (n_running, n_pending)
    spy.calls = 0
    return site, spy


class TestOneScoringPerPass:
    def test_one_call_however_many_swaps(self):
        site, spy = loaded_site(n_running=2, n_pending=3)
        site._preemption_pass()
        assert site.ledger.preemptions == 2  # both nodes changed hands ...
        assert spy.calls == 1                # ... on one scoring

    def test_one_call_when_nothing_swaps(self):
        site, spy = loaded_site(n_running=2, n_pending=3)
        for task in running_tasks(site.processors):
            task.vf = LinearDecayValueFunction(1e9, 0.0)
        site._preemption_pass()
        assert site.ledger.preemptions == 0 and spy.calls == 1

    @pytest.mark.parametrize("n_running,n_pending", [(2, 0), (0, 3), (0, 0)])
    def test_no_call_without_both_sides(self, n_running, n_pending):
        site, spy = loaded_site(n_running, n_pending)
        site._preemption_pass()
        assert spy.calls == 0 and site.ledger.preemptions == 0

    def test_nan_scores_hit_the_convergence_guard(self):
        class NaNScores(SchedulingHeuristic):
            name = "nan"

            def scores(self, cols, now):
                return np.full(len(cols), np.nan)

        site, _ = loaded_site(n_running=2, n_pending=3)
        site.heuristic = NaNScores()
        with pytest.raises(SchedulingError, match="failed to converge"):
            site._preemption_pass()


class SomeNaNScores(SchedulingHeuristic):
    """FirstPrice, but NaN for the tasks whose value is one of *values*:
    the NaN rows move with their tasks between pool and nodes."""

    name = "some-nan"

    def __init__(self, values):
        self.inner = FirstPrice()
        self.values = values

    def scores(self, cols, now):
        scores = np.array(self.inner.scores(cols, now))
        scores[np.isin(cols.value, self.values)] = np.nan
        return scores


#: (NaN values, the (victim, winner) value of every swap, running values in
#: slot order, pool values in order), as the rescoring-era loop left them
#: on 3 running tasks (values 10, 11, 12, one node down) and 5 queued
#: ones (500-504)
MIXED_NAN = [
    (
        (11.0, 502.0),
        [(11.0, 502.0), (502.0, 11.0)] * 5,
        [10.0, 11.0, 12.0],
        [500.0, 501.0, 503.0, 504.0, 502.0],
    ),
    (
        (502.0, 504.0),
        [(10.0, 502.0)] + [(502.0, 504.0), (504.0, 502.0)] * 4 + [(502.0, 504.0)],
        [504.0, 11.0, 12.0],
        [500.0, 501.0, 503.0, 10.0, 502.0],
    ),
    (
        (10.0, 12.0),
        [(10.0, 504.0)] + [(12.0, 10.0), (10.0, 12.0)] * 4 + [(12.0, 10.0)],
        [504.0, 11.0, 10.0],
        [500.0, 501.0, 502.0, 503.0, 12.0],
    ),
    (
        (10.0, 501.0, 503.0),
        [(10.0, 501.0), (501.0, 503.0), (503.0, 10.0)] * 3 + [(10.0, 501.0)],
        [501.0, 11.0, 12.0],
        [500.0, 502.0, 504.0, 503.0, 10.0],
    ),
]


@pytest.mark.parametrize(
    "values,swaps,running,pool", MIXED_NAN, ids=["both", "pending", "running", "three"]
)
def test_some_nan_scores_swap_as_argmax_and_argmin_pick(values, swaps, running, pool):
    # argmax and argmin both take the first NaN when there is one; a NaN on
    # either side never passes the swap test, so the guard ends the pass
    site, _ = loaded_site(n_running=3, n_pending=5, processors=4)
    site.heuristic = SomeNaNScores(values)
    log = []
    preempt, start = site._preempt, site._start
    site._preempt = lambda task: (log.append(task.value), preempt(task))
    site._start = lambda task: (log.append(task.value), start(task))
    with pytest.raises(SchedulingError, match="failed to converge"):
        site._preemption_pass()
    assert list(zip(log[::2], log[1::2])) == swaps
    assert [t.value for t in running_tasks(site.processors)] == running
    assert [t.value for t in site.pool] == pool
