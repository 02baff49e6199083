"""``SlackAdmission.evaluate`` against the single-path body it replaced.

The engine answers an empty-pool probe in closed form (earliest-free
node, zero displacement cost) and reads the free-time vector as a plain
list.  The body it replaced — probe, score, sort, project, gather, for
every pool depth including zero — lives on here as the oracle, and every
:class:`AdmissionDecision` field must be equal bit for bit, on an empty
pool and on a populated one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionError, SchedulingError
from repro.scheduling import (
    FirstPrice,
    FirstReward,
    PresentValue,
    SchedulingHeuristic,
    effective_decay,
    project_next_start,
)
from repro.sim import Simulator
from repro.site import SlackAdmission, TaskServiceSite
from repro.site.admission import AcceptAll, AdmissionDecision
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction

HEURISTICS = {
    "firstprice": FirstPrice,
    "pv": lambda: PresentValue(0.02),
    "firstreward0": lambda: FirstReward(alpha=0.0, discount_rate=0.01),
    "firstreward0.3": lambda: FirstReward(alpha=0.3, discount_rate=0.01),
    "firstreward1": lambda: FirstReward(alpha=1.0, discount_rate=0.01),
}

FIELDS = AdmissionDecision.__dataclass_fields__


class OracleAdmission(SlackAdmission):
    """The oracle: one path for every pool depth, through probe and sort."""

    def evaluate(self, site, task):
        if task.demand > 1:
            raise AdmissionError("multi-node")
        now = site.clock.now
        cols = site.pool.probe(task)
        candidate_index = len(cols) - 1

        scores = site.heuristic.scores(cols, now)
        own = scores[candidate_index]
        if math.isnan(own):
            position = candidate_index
        else:
            position = int(np.count_nonzero(scores >= own)) - 1
        order = np.argsort(-scores, kind="stable")
        expected_start = project_next_start(
            cols.remaining[order], np.array(site.processors.free_times(now)), position
        )
        expected_completion = expected_start + task.estimated_remaining
        expected_delay = max(0.0, expected_completion - task.arrival - task.estimate)
        expected_yield = task.vf.yield_at(expected_delay)
        pv = expected_yield / (1.0 + self.discount_rate * task.estimated_remaining)

        behind = order[position + 1 :]
        d_eff = effective_decay(cols, now)
        cost = float(task.estimate * d_eff[behind].sum())

        if task.decay > 0:
            slack = (pv - cost) / task.decay
        else:
            slack = math.inf if pv - cost >= 0 else -math.inf

        required = self.threshold + self.slack_inflation * task.estimated_remaining
        return AdmissionDecision(
            accept=bool(slack >= required),
            slack=slack,
            expected_start=expected_start,
            expected_completion=expected_completion,
            expected_delay=expected_delay,
            expected_yield=expected_yield,
            present_value=pv,
            cost=cost,
        )


class SpyHeuristic(SchedulingHeuristic):
    """Counts the ``scores()`` calls that reach the wrapped heuristic."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0

    def scores(self, cols, now):
        self.calls += 1
        return self.inner.scores(cols, now)


def same_bits(a, b) -> bool:
    """Equal as floats down to the sign of zero; NaN equals NaN."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_same_decision(got: AdmissionDecision, want: AdmissionDecision) -> None:
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        assert same_bits(a, b), (name, a, b)


def make_task(arrival, runtime, value, decay, bound=None, estimate=None):
    return Task(
        arrival, runtime, LinearDecayValueFunction(value, decay, bound), estimate=estimate
    )


def build_site(heuristic, processors, nodes, queued, at=40.0):
    """A site at clock *at* in one of the named node states.

    *nodes* is ``idle`` / ``busy`` / ``one_down`` / ``all_down``;
    *queued* tasks are put in the pool behind whatever is running.
    """
    sim = Simulator()
    site = TaskServiceSite(sim, processors, heuristic, admission=None)
    if nodes == "busy":
        for i in range(processors):
            site.submit(make_task(0.0, 90.0 + 7.0 * i, 200.0, 0.4), force=True)
    elif nodes == "one_down":
        site.submit(make_task(0.0, 120.0, 200.0, 0.4), force=True)
        site.crash_node(processors - 1)
    elif nodes == "all_down":
        for node in range(processors):
            site.crash_node(node)
    sim.run(until=at)
    assert site.clock.now == at
    for task in queued:
        task.submit()
        task.accept()
        site.pool.add(task)
    return site


def both_decisions(site, candidate, **policy):
    # the admission metrics are read off the decision, so equal fields
    # are equal metrics
    got = SlackAdmission(**policy).evaluate(site, candidate)
    want = OracleAdmission(**policy).evaluate(site, candidate)
    assert_same_decision(got, want)
    return got


candidates = st.tuples(
    st.floats(min_value=0.0, max_value=40.0),                  # arrival
    st.floats(min_value=0.01, max_value=2000.0),               # runtime
    st.floats(min_value=0.1, max_value=5000.0),                # value
    st.sampled_from([0.0, 5e-324, 0.05, 0.5, 10.0]),           # decay
    st.sampled_from([None, 0.0, 25.0]),                        # penalty bound
    st.sampled_from([None, 0.5, 1.0, 3.0]),                    # estimate / runtime
)


def candidate_from(row):
    arrival, runtime, value, decay, bound, misestimate = row
    estimate = None if misestimate is None else runtime * misestimate
    return make_task(arrival, runtime, value, decay, bound, estimate)


@pytest.mark.parametrize("heuristic_name", sorted(HEURISTICS))
@pytest.mark.parametrize("processors", [1, 4, 16])
@pytest.mark.parametrize("nodes", ["idle", "busy", "one_down", "all_down"])
@settings(max_examples=15, deadline=None)
@given(
    row=candidates,
    threshold=st.sampled_from([-math.inf, 0.0, 180.0]),
    slack_inflation=st.sampled_from([0.0, 0.5]),
    depth=st.integers(min_value=0, max_value=5),
)
def test_every_field_equals_the_single_path_oracle(
    heuristic_name, processors, nodes, row, threshold, slack_inflation, depth
):
    queued = [
        make_task(float(i), 30.0 + 11.0 * i, 80.0 + 40.0 * i, 0.3 * i,
                  0.0 if i % 2 else None)
        for i in range(depth)
    ]
    site = build_site(HEURISTICS[heuristic_name](), processors, nodes, queued)
    both_decisions(
        site, candidate_from(row), threshold=threshold, slack_inflation=slack_inflation
    )


@pytest.mark.parametrize("nodes", ["idle", "busy", "one_down", "all_down"])
def test_empty_pool_is_answered_without_scoring(nodes):
    spy = SpyHeuristic(FirstReward(alpha=0.3, discount_rate=0.01))
    site = build_site(spy, 4, nodes, queued=[])
    before = site.pool.columns()
    spy.calls = 0
    decision = SlackAdmission(180.0).evaluate(site, make_task(40.0, 60.0, 300.0, 0.5))
    assert spy.calls == 0
    assert decision.cost == 0.0
    assert decision.expected_start == min(site.processors.free_times(40.0))
    assert len(site.pool) == 0
    assert site.pool.columns() is before


def test_populated_pool_is_scored_exactly_once():
    spy = SpyHeuristic(FirstReward(alpha=0.3, discount_rate=0.01))
    queued = [make_task(0.0, 50.0, 100.0, 0.2), make_task(1.0, 20.0, 400.0, 0.9)]
    site = build_site(spy, 2, "busy", queued)
    before = site.pool.columns()
    spy.calls = 0
    SlackAdmission(180.0).evaluate(site, make_task(40.0, 60.0, 300.0, 0.5))
    assert spy.calls == 1
    assert len(site.pool) == 2
    assert site.pool.columns() is before
    assert site.pool.tasks == queued


def test_accept_all_on_an_empty_pool():
    site = build_site(FirstPrice(), 4, "all_down", queued=[])
    candidate = make_task(40.0, 60.0, 300.0, 0.5, bound=10.0)
    decision = AcceptAll(discount_rate=0.02).evaluate(site, candidate)
    want = OracleAdmission(threshold=-math.inf, discount_rate=0.02).evaluate(
        site, candidate
    )
    assert_same_decision(decision, want)
    assert decision.accept and decision.expected_start == math.inf


def test_empty_pool_keeps_the_input_checks():
    site = build_site(FirstPrice(), 2, "idle", queued=[])
    admission = SlackAdmission(0.0)
    wide = Task(40.0, 10.0, LinearDecayValueFunction(100.0, 1.0), demand=2)
    with pytest.raises(AdmissionError, match="single-node"):
        admission.evaluate(site, wide)
    negative = make_task(40.0, 10.0, 100.0, 1.0)
    negative.estimated_remaining = -1.0
    with pytest.raises(SchedulingError, match=r"negative RPT .*-1\.0.* at position 0"):
        admission.evaluate(site, negative)
    with pytest.raises(SchedulingError, match=r"negative RPT .*-1\.0.* at position 0"):
        OracleAdmission(0.0).evaluate(site, negative)
    site.processors = type("NoNodes", (), {"free_times": lambda self, now: []})()
    with pytest.raises(SchedulingError, match="at least one processor"):
        admission.evaluate(site, make_task(40.0, 10.0, 100.0, 1.0))


# ----------------------------------------------------------------------
# One sort: the candidate's rank is read off the argsort that orders the
# projection and the Eq. 8 sum.  The oracle above still derives it the old
# way (a count of scores >= its own, NaN special-cased).
# ----------------------------------------------------------------------

class FixedScores(SchedulingHeuristic):
    """Hands back the scores it was told to, candidate last."""

    name = "fixed"

    def __init__(self, scores):
        self.vector = np.array(scores, dtype=float)

    def scores(self, cols, now):
        assert len(cols) == len(self.vector)
        return self.vector.copy()


_NAN = math.nan

#: the last entry is the candidate's score
RANKINGS = {
    "rank0": [1.0, 2.0, 5.0],
    "rank_last": [1.0, 2.0, 0.5],
    "middle": [3.0, 1.0, 0.0, 2.0],
    "tie_with_all": [2.0, 2.0, 2.0],
    "tie_with_one": [3.0, 2.0, 1.0, 2.0],
    "tie_at_the_top": [7.0, 1.0, 7.0],
    "signed_zero_tie": [0.0, 1.0, -0.0],
    "nan_candidate": [1.0, 2.0, _NAN],
    "nan_queued": [_NAN, 2.0, 1.0],
    "nan_queued_and_candidate": [_NAN, 1.0, _NAN],
    "all_nan": [_NAN, _NAN, _NAN],
    "infinite": [math.inf, -math.inf, math.inf],
}


def fixed_scores_site(scores, processors, nodes, queued):
    site = build_site(FirstPrice(), processors, nodes, queued)
    # a crashed node's victim is requeued ahead of *queued*: rank it first
    requeued = len(site.pool) - len(queued)
    site.heuristic = FixedScores([9.0] * requeued + scores)
    return site


@pytest.mark.parametrize("ranking", sorted(RANKINGS))
@pytest.mark.parametrize("processors", [1, 4])
@pytest.mark.parametrize("nodes", ["idle", "busy", "one_down"])
def test_one_sort_places_the_candidate_where_the_count_did(ranking, processors, nodes):
    scores = RANKINGS[ranking]
    queued = [
        make_task(float(i), 30.0 + 11.0 * i, 80.0 + 40.0 * i, 0.3 * (i + 1),
                  0.0 if i % 2 else None)
        for i in range(len(scores) - 1)
    ]
    site = fixed_scores_site(scores, processors, nodes, queued)
    for decay in (0.0, 0.5):
        candidate = make_task(40.0, 60.0, 300.0, decay)
        got = both_decisions(site, candidate, threshold=0.0)
        if ranking == "rank_last":
            assert got.cost == 0.0
        if ranking == "rank0" and len(site.pool) == len(queued):
            assert got.expected_start == min(site.processors.free_times(40.0))


@pytest.mark.parametrize("processors", [1, 4])
@pytest.mark.parametrize("ranking", ["rank0", "rank_last", "middle"])
def test_negative_rpt_is_refused_with_the_old_message(processors, ranking):
    scores = RANKINGS[ranking]
    queued = [make_task(float(i), 30.0, 80.0, 0.3) for i in range(len(scores) - 1)]
    site = fixed_scores_site(scores, processors, "busy", queued)
    candidate = make_task(40.0, 10.0, 100.0, 1.0)
    candidate.estimated_remaining = -1.0
    errors = []
    for admission in (SlackAdmission(0.0), OracleAdmission(0.0)):
        with pytest.raises(SchedulingError, match=r"negative RPT .*-1\.0.* at position \d") as info:
            admission.evaluate(site, candidate)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    # a queued row is checked too, wherever the candidate ranks
    queued[0].estimated_remaining = -2.0
    site.pool.remove(queued[0])
    site.pool.add(queued[0])
    candidate.estimated_remaining = 10.0
    messages = []
    for admission in (SlackAdmission(0.0), OracleAdmission(0.0)):
        with pytest.raises(SchedulingError, match="negative RPT") as info:
            admission.evaluate(site, candidate)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
