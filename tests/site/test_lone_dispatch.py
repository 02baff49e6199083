"""A lone pending task is started without being scored.

With one task in the pool there is nothing to rank, so the dispatch loop
skips ``scores()`` and only checks that the task's gang fits the free
nodes.  These tests hold that shortcut to the loop it shortcuts: same
starts, in the same order, on every kind of site.
"""

import numpy as np
import pytest

from repro.scheduling import FCFS, FirstPrice, FirstReward, SchedulingHeuristic
from repro.sim import Simulator
from repro.site import TaskServiceSite
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction


class ScoreEverything(TaskServiceSite):
    """The dispatch loop without the shortcut: every pool is scored."""

    def _schedule_pass(self) -> None:
        now = self.clock.now
        if self.discard_expired:
            self._discard_expired(now)
        while self.pool and self.processors.free_count > 0:
            scores = self.heuristic.scores(self.pool.columns(), now)
            if not self.pool.has_multi_node:
                self._start(self.pool.remove_at(int(np.argmax(scores))))
                continue
            free = self.processors.free_count
            for index in np.argsort(-scores, kind="stable"):
                if self.pool.task_at(int(index)).demand <= free:
                    self._start(self.pool.remove_at(int(index)))
                    break
            else:
                break
        if self.preemption:
            self._preemption_pass()


class Counting(SchedulingHeuristic):
    """Delegates to *inner*, remembering the depth of every pool scored."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.depths = []

    def scores(self, cols, now):
        self.depths.append(len(cols))
        return self.inner.scores(cols, now)


def make_tasks(seed, n, max_demand):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(4.0, n))
    return [
        Task(
            float(arrivals[i]),
            float(rng.uniform(1.0, 12.0)),
            LinearDecayValueFunction(
                float(rng.uniform(10.0, 200.0)),
                float(rng.uniform(0.0, 3.0)),
                None if rng.random() < 0.7 else float(rng.uniform(0.0, 50.0)),
            ),
            demand=int(rng.integers(1, max_demand + 1)),
        )
        for i in range(n)
    ]


def run(site_class, heuristic, tasks, processors, **kwargs):
    sim = Simulator()
    site = site_class(sim, processors, heuristic, **kwargs)
    started = []
    start = site._start

    def logged_start(task):
        start(task)
        started.append((sim.now, tasks.index(task)))

    site._start = logged_start
    for task in tasks:
        sim.schedule_at(task.arrival, site.submit, task)
    sim.run()
    assert site.all_work_done()
    return started


@pytest.mark.parametrize(
    "make_heuristic", [FCFS, FirstPrice, lambda: FirstReward(alpha=0.3)]
)
@pytest.mark.parametrize(
    "processors, max_demand, kwargs",
    [
        (1, 1, {}),
        (3, 1, {"preemption": True}),
        (3, 1, {"discard_expired": True}),
        (4, 3, {}),  # gangs: a lone wide task may have to wait
    ],
)
def test_same_starts_in_the_same_order_as_the_scored_loop(
    make_heuristic, processors, max_demand, kwargs
):
    for seed in range(5):
        counting = Counting(make_heuristic())
        shortcut = run(
            TaskServiceSite, counting, make_tasks(seed, 60, max_demand), processors, **kwargs
        )
        scored = run(
            ScoreEverything, make_heuristic(), make_tasks(seed, 60, max_demand),
            processors, **kwargs
        )
        assert shortcut == scored
        # the traces are sparse enough that lone tasks are the usual case,
        # and none of them was scored by the dispatch loop (the preemption
        # pass scores pending + running, which is never a pool of one)
        assert len(shortcut) >= 60
        assert 1 not in counting.depths


def test_lone_task_on_an_idle_site_is_never_scored():
    counting = Counting(FirstPrice())
    tasks = [
        Task(10.0 * i, 5.0, LinearDecayValueFunction(100.0, 1.0)) for i in range(4)
    ]
    started = run(TaskServiceSite, counting, tasks, processors=2)
    assert [index for _, index in started] == [0, 1, 2, 3]
    assert counting.depths == []


def test_lone_gang_task_waits_for_enough_free_nodes():
    sim = Simulator()
    counting = Counting(FCFS())
    site = TaskServiceSite(sim, 4, counting)
    wide = Task(0.0, 10.0, LinearDecayValueFunction(100.0, 1.0), demand=3)
    pair = Task(1.0, 5.0, LinearDecayValueFunction(100.0, 1.0), demand=2)
    sim.schedule_at(wide.arrival, site.submit, wide)
    sim.schedule_at(pair.arrival, site.submit, pair)
    sim.run(until=5.0)
    # one node is free and the pool holds only `pair`, which needs two
    assert site.processors.free_count == 1
    assert pair.state is TaskState.QUEUED and site.queue_length == 1
    sim.run()
    assert pair.first_start == 10.0
    assert counting.depths == []
