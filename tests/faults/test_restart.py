"""Restart policies and crash accounting on hand-computed scenarios."""

import math

import pytest

from repro.errors import SchedulingError
from repro.faults import (
    AbandonRestart,
    FaultSpec,
    RequeueRestart,
    make_restart_policy,
)
from repro.scheduling import FCFS
from repro.sim import Simulator
from repro.site import TaskServiceSite
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction


def make_task(arrival, runtime, value=100.0, decay=0.0, bound=None, estimate=None):
    return Task(
        arrival, runtime, LinearDecayValueFunction(value, decay, bound), estimate=estimate
    )


def crash_scenario(runtime, crash_at, repair_at, policy, task=None, **site_kwargs):
    """One task, one node; crash mid-run, repair later; run to drain."""
    sim = Simulator()
    site = TaskServiceSite(
        sim, processors=1, heuristic=FCFS(), restart_policy=policy, **site_kwargs
    )
    t = task if task is not None else make_task(0.0, runtime)
    sim.schedule_at(0.0, site.submit, t)
    outcomes = []
    sim.schedule_at(crash_at, lambda: outcomes.append(site.crash_node(0)))
    sim.schedule_at(repair_at, site.repair_node, 0)
    sim.run()
    return sim, site, t, outcomes[0]


class TestRequeue:
    def test_all_progress_lost(self):
        sim, site, t, outcome = crash_scenario(20.0, 15.0, 30.0, RequeueRestart())
        assert outcome.requeued and outcome.work_lost == pytest.approx(15.0)
        assert t.state is TaskState.COMPLETED
        # restarted from scratch at the repair: 30 + 20
        assert t.completion == pytest.approx(50.0)
        assert t.restarts == 1
        assert site.ledger.crashes == 1 and site.ledger.restarts == 1

    def test_yield_charged_once_at_final_completion(self):
        t = make_task(0.0, 20.0, value=100.0, decay=1.0)
        sim, site, t, _ = crash_scenario(20.0, 15.0, 30.0, RequeueRestart(), task=t)
        # delay = completion - arrival - estimate = 50 - 0 - 20 = 30
        assert t.realized_yield == pytest.approx(100.0 - 30.0)
        assert site.ledger.total_yield == pytest.approx(70.0)
        assert site.ledger.completed == 1


class TestAbandon:
    def test_bounded_task_breaches_at_floor(self):
        t = make_task(0.0, 20.0, value=100.0, decay=1.0, bound=40.0)
        sim, site, t, outcome = crash_scenario(20.0, 15.0, 30.0, AbandonRestart(), task=t)
        assert not outcome.requeued
        assert outcome.penalty == pytest.approx(40.0)
        assert t.state is TaskState.CANCELLED
        assert t.realized_yield == pytest.approx(-40.0)
        assert site.ledger.breaches == 1
        assert site.ledger.breach_penalties == pytest.approx(40.0)
        assert site.ledger.total_yield == pytest.approx(-40.0)
        # the slot is free again: nothing left running
        assert site.all_work_done()

    def test_unbounded_task_falls_back_to_requeue(self):
        t = make_task(0.0, 20.0, value=100.0, decay=1.0, bound=None)
        sim, site, t, outcome = crash_scenario(20.0, 15.0, 30.0, AbandonRestart(), task=t)
        assert outcome.requeued
        assert t.state is TaskState.COMPLETED
        assert site.ledger.breaches == 0


class TestFactoryAndMisestimation:
    def test_make_restart_policy_dispatch(self):
        assert isinstance(
            make_restart_policy(FaultSpec(mttf=1.0, mttr=1.0)), RequeueRestart
        )
        assert isinstance(
            make_restart_policy(FaultSpec(mttf=1.0, mttr=1.0, restart="abandon")),
            AbandonRestart,
        )

    def test_requeue_restores_declared_estimate(self):
        """A misestimated task requeues with its *declared* estimate, not
        the true runtime — the site still cannot see the truth."""
        t = make_task(0.0, runtime=30.0, estimate=10.0)
        sim, site, t, _ = crash_scenario(30.0, 20.0, 25.0, RequeueRestart(), task=t)
        assert t.state is TaskState.COMPLETED
        assert t.completion == pytest.approx(55.0)  # 25 + full 30 rerun
        assert t.estimated_remaining == pytest.approx(0.0, abs=1e-6) or t.finished

    def test_crash_requires_running_task(self):
        t = make_task(0.0, 10.0)
        with pytest.raises(SchedulingError):
            t.crash(5.0)


class TestMultiNode:
    def test_crash_only_kills_victim_node(self):
        sim = Simulator()
        site = TaskServiceSite(
            sim, processors=2, heuristic=FCFS(), restart_policy=RequeueRestart()
        )
        a = make_task(0.0, 20.0)
        b = make_task(0.0, 20.0)
        sim.schedule_at(0.0, site.submit, a)
        sim.schedule_at(0.0, site.submit, b)
        sim.schedule_at(5.0, site.crash_node, 0)
        sim.schedule_at(10.0, site.repair_node, 0)
        sim.run()
        assert a.state is TaskState.COMPLETED and b.state is TaskState.COMPLETED
        # exactly one of the two restarted
        assert a.restarts + b.restarts == 1
        assert math.isclose(max(a.completion, b.completion), 30.0)


class TestOneFailurePath:
    """A crashed node and a failed run (the executor reporting
    ``ok=False``, as a live subprocess does) are one code path: from the
    same state they leave the same ledger, queue, listener calls and
    restart count, and run to the same end."""

    @staticmethod
    def _scenario(policy):
        sim = Simulator()
        site = TaskServiceSite(sim, processors=2, heuristic=FCFS(), restart_policy=policy)
        calls = []
        start = site._start

        def logged_start(task):
            start(task)
            calls.append(("start", task.tid, sim.now))

        site._start = logged_start
        site.finish_listeners.append(lambda t: calls.append(("finish", t.tid, t.state)))
        site.crash_listeners.append(lambda t, outcome: calls.append(("crash", t.tid, outcome)))
        tasks = [
            make_task(0.0, 20.0, decay=1.0, bound=40.0),
            make_task(0.0, 30.0),
            make_task(1.0, 10.0),  # queued behind the two above
        ]
        for tid, task in enumerate(tasks, start=9000):
            task.tid = tid
            sim.schedule_at(task.arrival, site.submit, task)
        return sim, site, tasks, calls

    @staticmethod
    def _state(sim, site, tasks, calls):
        return {
            "ledger": site.ledger.summary(),
            "records": site.ledger.records,
            "queue": [t.tid for t in site.pool.tasks],
            "running": [t.tid for t in site.processors.running_tasks],
            "calls": calls,
            "tasks": [
                (t.state, t.restarts, t.remaining, t.estimated_remaining, t.completion)
                for t in tasks
            ],
            "pending_events": sim.pending_count,
        }

    @pytest.mark.parametrize(
        "make_policy",
        [RequeueRestart, AbandonRestart],
        ids=["requeue", "abandon"],
    )
    def test_crash_node_and_a_failed_exit_agree(self, make_policy):
        def crashed(site, victim):
            node = site.processors.node_ids_of(victim)[0]
            outcome = site.crash_node(node)
            site.repair_node(node)  # a failed run leaves its node up
            return outcome

        def failed(site, victim):
            site.executor.cancel(site._runs[victim.tid])
            return site._on_exit(victim, ok=False)

        states = []
        for end_run in (crashed, failed):
            sim, site, tasks, calls = self._scenario(make_policy())
            outcomes = []
            sim.schedule_at(7.0, lambda: outcomes.append(end_run(site, tasks[0])))
            sim.run(until=7.0)
            at_failure = self._state(sim, site, tasks, list(calls))
            sim.run()
            states.append((outcomes, at_failure, self._state(sim, site, tasks, calls)))
        assert states[0] == states[1]
        (outcome,), at_failure, at_end = states[0]
        assert outcome.requeued == (at_failure["ledger"]["restarts"] == 1)
        assert at_failure["ledger"]["crashes"] == 1
        assert at_end["ledger"]["completed"] + at_end["ledger"]["breaches"] == 3
