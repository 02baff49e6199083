"""A lone pending task is started without being scored, and a task that
finds the site idle is started without entering the pool.

With one task in the pool there is nothing to rank, so the dispatch loop
skips ``scores()`` and only checks that the task's gang fits the free
nodes.  With none, ``submit`` starts an accepted task whose gang fits at
once, unless the site discards expired tasks.  These tests hold each
shortcut to the body it shortcuts: same starts, in the same order, on
every kind of site.
"""

import re
from unittest import mock

import numpy as np
import pytest

from repro.market import MarketSite, run_market
from repro.obs import Observability
from repro.scheduling import FCFS, FirstPrice, FirstReward, SchedulingHeuristic
from repro.scheduling.base import affine_coefficients
from repro.scheduling.pool import _ARRIVAL, _BOUND, _LATE
from repro.sim import Simulator
from repro.site import SlackAdmission, TaskServiceSite
from repro.site.admission import AdmissionDecision
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction
from repro.workload import economy_spec, generate_trace


class PoolEveryArrival(TaskServiceSite):
    """The oracle: ``submit`` always pools the accepted task, then passes
    (its input checks left out: the streams here pass them)."""

    def submit(self, task, force=False):
        now = self.clock.now
        task.submit()
        self.ledger.note_submission(task, now)
        if self.obs is not None:
            self.obs.task_submitted(task, now)
        decision = None
        if self.admission is not None and not force:
            decision = self.admission.evaluate(self, task)
            if not decision.accept:
                task.reject(now)
                self.ledger.note_reject(task, now)
                if self.obs is not None:
                    self.obs.task_rejected(task, decision, now)
                return decision
        task.accept()
        self.pool.add(task)
        self.ledger.note_accept(task)
        if self.obs is not None:
            self.obs.task_admitted(task, decision, now)
        self._schedule_pass()
        return decision


class ScoreEverything(PoolEveryArrival):
    """The dispatch loop without either shortcut: every accepted task is
    pooled, and every pool is scored."""

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


# ----------------------------------------------------------------------
# The direct start: an accepted task that finds the pool empty, its gang
# free and no expired-task discard starts inside ``submit`` and never
# enters the pool.  The oracle is the submit body it shortcuts
# (PoolEveryArrival): every accepted task enters the pool, and the pass
# at the same instant starts it.
# ----------------------------------------------------------------------


class RowStates:
    """Logs the pool's row state after every scheduling pass: its depth,
    floor count, expiring count and bound key, and apart from them
    whether its coefficient rows are fresh.

    The flags may differ between the two sides, in one direction: an
    expiring task that passes through an empty pool marks the oracle's
    coefficient rows stale, while a direct start never touches them.
    So wherever the oracle's rows are fresh the change's must be too,
    and fresh rows must hold exactly what a rebuild would write.
    """

    def _schedule_pass(self):
        super()._schedule_pass()
        pool = self.pool
        rows = pool._rows
        n = len(pool)
        if rows.fresh:
            rebuilt = affine_coefficients(*pool._data[_ARRIVAL:_BOUND, :n], *rows.key)
            assert pool._data[_LATE:, :n].tobytes() == rebuilt.tobytes()
        self.row_states.append((n, rows.count, pool._expiring, rows.key))
        self.fresh.append(rows.fresh)


class DirectSite(RowStates, TaskServiceSite):
    pass


class OracleSite(RowStates, PoolEveryArrival):
    pass


SITE_HOOKS = (
    "task_submitted", "task_admitted", "task_rejected", "task_started",
    "task_preempted", "task_restarted", "task_completed", "task_aborted",
    "task_breached", "queue_depth",
)


class HookLog(Observability):
    """An observer that also logs each site hook call, naming tasks by
    first appearance (task ids come from a process-global counter)."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self.ids = {}

    def plain(self, arg):
        if isinstance(arg, Task):
            return ("task", self.ids.setdefault(arg.tid, len(self.ids)))
        if isinstance(arg, AdmissionDecision):
            return tuple(arg)
        return arg

    def span_tree(self):
        def text(s):
            return re.sub(r"task:(\d+)", lambda m: f"task#{self.ids[int(m.group(1))]}", s)

        return [
            (s.span_id, s.parent_id, s.category, text(s.name), s.start, s.end,
             None if s.task_id is None else self.ids[s.task_id],
             None if s.track is None else text(s.track), s.run, s.args)
            for s in self.spans.finished
        ]


def _logged(name):
    def hook(self, *args, **kwargs):
        self.calls.append((name, *map(self.plain, args), sorted(kwargs.items())))
        return getattr(Observability, name)(self, *args, **kwargs)

    return hook


for _name in SITE_HOOKS:
    setattr(HookLog, _name, _logged(_name))


def observed_run(site_class, heuristic, tasks, processors, crash=False, **kwargs):
    """One run of *tasks*; what it did, as the two sides must share it."""
    sim = Simulator()
    obs = HookLog()
    site = site_class(sim, processors, heuristic, obs=obs, **kwargs)
    site.row_states, site.fresh = [], []
    if crash:  # node 0 goes down mid-stream, and node 1 for good later on
        sim.schedule_at(60.0, site.crash_node, 0)
        sim.schedule_at(140.0, site.repair_node, 0)
        sim.schedule_at(170.0, site.crash_node, 1)
    for task in tasks:
        sim.schedule_at(task.arrival, site.submit, task)
    obs.begin_run("oracle")
    sim.run()
    obs.end_run(sim.now)
    return {
        "hooks": obs.calls,
        "spans": obs.span_tree(),
        "ledger": site.ledger.summary(),
        "rows": site.row_states,
        "fresh": site.fresh,
        "fates": [(t.state, t.first_start, t.completion) for t in tasks],
    }


def assert_same_run(got, want):
    """Equal in everything but the fresh flags, where the change's rows
    are fresh at least wherever the oracle's are."""
    fresh, oracle_fresh = got.pop("fresh"), want.pop("fresh")
    assert got == want
    assert all(a or not b for a, b in zip(fresh, oracle_fresh, strict=True))


@pytest.mark.parametrize(
    "make_heuristic", [FCFS, FirstPrice, lambda: FirstReward(alpha=0.3)]
)
@pytest.mark.parametrize("crash", [False, True])
@pytest.mark.parametrize(
    "processors, max_demand, kwargs",
    [
        (1, 1, {}),
        (3, 1, {"preemption": True}),
        (3, 1, {"discard_expired": True}),
        (3, 1, {"discard_expired": True, "preemption": True}),
        (3, 1, {"threshold": 20.0}),  # slack admission in front
        (3, 1, {"threshold": 20.0, "preemption": True}),
        (4, 3, {}),  # gangs that do not fit the free nodes wait in the pool
        (4, 3, {"discard_expired": True}),
    ],
)
def test_the_direct_start_is_the_pooled_start(
    make_heuristic, crash, processors, max_demand, kwargs
):
    kwargs = dict(kwargs)
    if "threshold" in kwargs:
        kwargs["admission"] = SlackAdmission(kwargs.pop("threshold"))
    direct = 0
    for seed in range(4):
        got = observed_run(DirectSite, make_heuristic(), make_tasks(seed, 60, max_demand),
                           processors, crash, **kwargs)
        want = observed_run(OracleSite, make_heuristic(), make_tasks(seed, 60, max_demand),
                            processors, crash, **kwargs)
        assert_same_run(got, want)
        hooks = got["hooks"]
        direct += sum(
            1 for before, after in zip(hooks, hooks[1:])
            if before[0] == "task_admitted" and after[0] == "task_started"
        )
    assert direct > 0  # the streams do reach an idle site


def test_the_market_award_starts_as_the_pooled_engine():
    def market(engine_class):
        obs = HookLog()
        sim = Simulator()
        spec = economy_spec(n_jobs=120, load_factor=1.5, processors=6, penalty_bound=5.0)
        obs.begin_run("market")
        with mock.patch("repro.market.sites.TaskServiceSite", engine_class):
            sites = [
                MarketSite(sim, f"s{i}", 2, FirstReward(alpha=0.3, discount_rate=0.01),
                           admission=SlackAdmission(threshold=50.0), obs=obs)
                for i in range(3)
            ]
        for site in sites:
            site.engine.row_states, site.engine.fresh = [], []
        result = run_market(generate_trace(spec, seed=0), sites)
        obs.end_run(sim.now)
        return {
            "summary": result.summary(),
            "contracts": [
                None if o.contract is None else (
                    o.contract.site_id, o.contract.promised_completion,
                    o.contract.agreed_price, o.contract.actual_completion,
                    o.contract.actual_price,
                )
                for o in result.outcomes
            ],
            "hooks": obs.calls,
            "spans": obs.span_tree(),
            "ledgers": [s.engine.ledger.summary() for s in sites],
            "rows": [s.engine.row_states for s in sites],
            "fresh": [flag for s in sites for flag in s.engine.fresh],
        }

    got, want = market(DirectSite), market(OracleSite)
    assert_same_run(got, want)
    assert got["summary"]["accepted"] > 0
    assert any(
        before[0] == "task_admitted" and after[0] == "task_started"
        for before, after in zip(got["hooks"], got["hooks"][1:])
    )


def test_an_expired_arrival_at_an_idle_discarding_site_is_cancelled_not_started():
    sim = Simulator()
    site = TaskServiceSite(sim, 2, FirstPrice(), discard_expired=True)
    # arrived at 0 and reaches the site at 100: its value hit the floor
    # (10 - 1.0 * delay <= -5) at delay 15
    late = Task(0.0, 5.0, LinearDecayValueFunction(10.0, 1.0, 5.0))
    sim.run(until=100.0)
    site.submit(late)
    assert late.state is TaskState.CANCELLED
    assert late.first_start is None
    assert site.processors.free_count == 2 and not site.pool
    assert site.ledger.summary()["cancelled"] == 1
