"""Unit tests for slack-based admission control (Eq. 7–8)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionError
from repro.scheduling import (
    FirstPrice,
    SchedulingHeuristic,
    effective_decay,
    project_next_start,
)
from repro.sim import Simulator
from repro.site import SlackAdmission, TaskServiceSite
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction


def make_task(arrival, runtime, value=100.0, decay=1.0, bound=None):
    return Task(arrival, runtime, LinearDecayValueFunction(value, decay, bound))


def empty_site(threshold=0.0, processors=1, discount_rate=0.0):
    sim = Simulator()
    admission = SlackAdmission(threshold=threshold, discount_rate=discount_rate)
    site = TaskServiceSite(sim, processors, FirstPrice(), admission=admission)
    return sim, site


class TestEvaluate:
    def test_idle_site_full_slack(self):
        sim, site = empty_site()
        t = make_task(0.0, 10.0, value=100.0, decay=2.0)
        decision = site.admission.evaluate(site, t)
        # starts immediately: yield 100, no cost behind, slack = 100/2
        assert decision.expected_start == 0.0
        assert decision.expected_completion == 10.0
        assert decision.expected_yield == 100.0
        assert decision.cost == 0.0
        assert decision.slack == pytest.approx(50.0)
        assert decision.accept

    def test_queued_behind_running_task(self):
        sim, site = empty_site()
        blocker = make_task(0.0, 20.0, value=1000.0, decay=0.1)
        site.submit(blocker)
        t = make_task(0.0, 10.0, value=100.0, decay=2.0)
        decision = site.admission.evaluate(site, t)
        # must wait for the blocker: completes at 30, delay 20 => yield 60
        assert decision.expected_start == pytest.approx(20.0)
        assert decision.expected_yield == pytest.approx(60.0)
        assert decision.slack == pytest.approx(30.0)

    def test_cost_counts_tasks_behind(self):
        sim, site = empty_site()
        blocker = make_task(0.0, 20.0, value=1000.0, decay=0.1)
        site.submit(blocker)
        # queued task with low unit gain -> will order behind the candidate
        laggard = make_task(0.0, 10.0, value=10.0, decay=0.5)
        site.submit(laggard)
        t = make_task(0.0, 10.0, value=100.0, decay=2.0)
        decision = site.admission.evaluate(site, t)
        # candidate (unit gain 10) orders ahead of laggard (unit gain 1):
        # Eq. 8 cost = runtime * decay_laggard = 10 * 0.5
        assert decision.cost == pytest.approx(5.0)
        assert decision.slack == pytest.approx((60.0 - 5.0) / 2.0)

    def test_zero_decay_task_has_infinite_slack(self):
        sim, site = empty_site()
        t = make_task(0.0, 10.0, value=100.0, decay=0.0)
        decision = site.admission.evaluate(site, t)
        assert decision.slack == math.inf
        assert decision.accept

    def test_discount_rate_lowers_pv(self):
        sim, site = empty_site(discount_rate=0.0)
        t = make_task(0.0, 10.0, value=100.0, decay=2.0)
        undiscounted = site.admission.evaluate(site, t).present_value
        site.admission = SlackAdmission(threshold=0.0, discount_rate=0.05)
        discounted = site.admission.evaluate(site, t).present_value
        assert discounted == pytest.approx(100.0 / 1.5)
        assert discounted < undiscounted

    def test_evaluate_does_not_mutate_site(self):
        sim, site = empty_site()
        t = make_task(0.0, 10.0)
        site.admission.evaluate(site, t)
        assert site.queue_length == 0
        assert site.running_count == 0
        assert t.state is TaskState.CREATED


class PresetScores(SchedulingHeuristic):
    """Hands back a fixed score vector, whatever the columns hold."""

    name = "preset"

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def scores(self, cols, now):
        assert len(cols) == len(self.values)
        return self.values.copy()


#: few distinct values, so ties with the candidate (and NaN, and the
#: infinities) are the common case, not the rare one
tied_scores = st.lists(
    st.sampled_from([-math.inf, -1.0, 0.0, 1.0, math.inf, math.nan]),
    min_size=1,
    max_size=9,
)


class TestCandidatePosition:
    """evaluate() reads the candidate's place in the candidate schedule as
    a count of scores >= its own; that must be the place a stable
    descending argsort gives the last row, ties and NaN included."""

    @settings(max_examples=200, deadline=None)
    @given(scores=tied_scores, processors=st.integers(min_value=1, max_value=3))
    def test_count_equals_stable_argsort_position(self, scores, processors):
        sim = Simulator()
        heuristic = PresetScores(scores)
        admission = SlackAdmission(threshold=-math.inf, discount_rate=0.0)
        site = TaskServiceSite(sim, processors, heuristic, admission=admission)
        # occupy every node, then queue one task per score but the last
        for i in range(processors):
            site.submit(make_task(0.0, 50.0 + i), force=True)
        for i in range(len(scores) - 1):
            site.submit(make_task(0.0, 3.0 + i, decay=0.5 + i), force=True)
        assert site.queue_length == len(scores) - 1
        candidate = make_task(0.0, 7.0, decay=2.0)

        decision = admission.evaluate(site, candidate)

        cols = site.pool.probe(candidate)
        order = np.argsort(-heuristic.values, kind="stable")
        position = int(np.nonzero(order == len(scores) - 1)[0][0])
        start = project_next_start(
            cols.remaining[order[:position]].tolist(), site.processors.free_times(0.0)
        )
        behind = order[position + 1 :]
        cost = float(candidate.estimate * effective_decay(cols, 0.0)[behind].sum())
        assert decision.expected_start == start
        assert decision.cost == cost


class TestAcceptReject:
    def test_rejects_below_threshold(self):
        sim, site = empty_site(threshold=60.0)
        # slack = 100/2 = 50 < 60 -> reject
        t = make_task(0.0, 10.0, value=100.0, decay=2.0)
        decision = site.submit(t)
        assert not decision.accept
        assert t.state is TaskState.REJECTED
        assert site.ledger.rejected == 1
        assert site.queue_length == 0

    def test_accepts_at_threshold(self):
        sim, site = empty_site(threshold=50.0)
        t = make_task(0.0, 10.0, value=100.0, decay=2.0)
        decision = site.submit(t)
        assert decision.accept
        assert t.state is TaskState.RUNNING  # dispatched immediately

    def test_rejection_monotone_in_threshold(self):
        # a task accepted at a high threshold is accepted at any lower one
        for lo, hi in [(0.0, 49.0), (-100.0, 0.0)]:
            _, site_lo = empty_site(threshold=lo)
            _, site_hi = empty_site(threshold=hi)
            t_lo = make_task(0.0, 10.0, value=100.0, decay=2.0)
            t_hi = make_task(0.0, 10.0, value=100.0, decay=2.0)
            d_lo = site_lo.submit(t_lo)
            d_hi = site_hi.submit(t_hi)
            assert d_lo.accept or not d_hi.accept

    def test_load_shedding_under_pressure(self):
        # saturate a tiny site; later submissions see growing queues and
        # eventually get rejected
        sim, site = empty_site(threshold=20.0)
        decisions = []
        for _i in range(10):
            t = make_task(0.0, 50.0, value=100.0, decay=2.0)
            decisions.append(site.submit(t))
        accepts = [d.accept for d in decisions]
        assert accepts[0] is True
        assert accepts[-1] is False
        # prefix property: once slack dips below threshold it stays below
        # (identical tasks, same instant)
        assert accepts == sorted(accepts, reverse=True)

    def test_validation(self):
        with pytest.raises(AdmissionError):
            SlackAdmission(threshold=math.nan)
        with pytest.raises(AdmissionError):
            SlackAdmission(discount_rate=-0.5)


class TestAcceptAll:
    def test_accepts_everything_but_reports_slack(self):
        sim = Simulator()
        site = TaskServiceSite(
            sim, 1, FirstPrice(), admission=SlackAdmission(threshold=-math.inf)
        )
        blocker = make_task(0.0, 1000.0, value=10.0, decay=5.0)
        decision = site.submit(blocker)
        assert decision.accept
        hopeless = make_task(0.0, 10.0, value=1.0, decay=5.0)
        decision = site.submit(hopeless)
        assert decision.accept
        assert decision.slack < 0  # would have been rejected by any threshold
