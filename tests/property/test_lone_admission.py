"""``SlackAdmission.evaluate`` against the single-path body it replaced.

The engine answers an empty-pool probe in closed form (earliest-free
node, zero displacement cost; with a node free that is *now*, read off
``free_count`` without the free-time vector), reads the free-time
vector as a plain list, and ranks a shallow never-expires probe in Python floats from the
pool's coefficient rows.  The body it replaced — probe, score, sort,
project, gather, on NumPy vectors, for every pool depth including zero —
lives on here as the oracle, and every :class:`AdmissionDecision` field
must be equal bit for bit: on an empty pool, on a populated one, and on
both sides of the eight-row limit of the scalar path.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionError, SchedulingError
from repro.faults.survival import ExponentialSurvival
from repro.scheduling import (
    FirstPrice,
    FirstReward,
    PendingPool,
    PresentValue,
    SchedulingHeuristic,
    SurvivalDiscount,
    effective_decay,
    project_next_start,
)
from repro.scheduling.base import PoolColumns, affine_coefficients, affine_scores
from repro.scheduling.pool import _ARRIVAL, _BOUND, _LATE, SCALAR_PROBE_ROWS
from repro.site.admission import _place_shallow
from repro.sim import Simulator
from repro.site import SlackAdmission, TaskServiceSite
from repro.site.admission import AdmissionDecision
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction

HEURISTICS = {
    "firstprice": FirstPrice,
    "pv": lambda: PresentValue(0.02),
    "firstreward0": lambda: FirstReward(alpha=0.0, discount_rate=0.01),
    "firstreward0.3": lambda: FirstReward(alpha=0.3, discount_rate=0.01),
    "firstreward1": lambda: FirstReward(alpha=1.0, discount_rate=0.01),
}

FIELDS = AdmissionDecision._fields


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


#: node states that leave the pool empty: a free node answers from
#: ``free_count`` alone, the others from the free-time vector
EMPTY_POOL_NODES = ("idle", "busy", "all_down")


@pytest.mark.parametrize("heuristic_name", sorted(HEURISTICS))
@pytest.mark.parametrize("processors", [1, 4, 16])
@pytest.mark.parametrize("nodes", EMPTY_POOL_NODES)
@settings(max_examples=20, deadline=None)
@given(
    row=candidates,
    threshold=st.sampled_from([-math.inf, 0.0, 180.0]),
    slack_inflation=st.sampled_from([0.0, 0.5]),
    rpt=st.sampled_from([None, 0.0, -0.0]),
)
def test_an_empty_pool_equals_the_oracle_on_idle_busy_and_down_nodes(
    heuristic_name, processors, nodes, row, threshold, slack_inflation, rpt
):
    site = build_site(HEURISTICS[heuristic_name](), processors, nodes, queued=[])
    assert not site.pool
    candidate = candidate_from(row)
    if rpt is not None:  # a zero RPT of either sign is taken, not refused
        candidate.estimated_remaining = rpt
    got = both_decisions(
        site, candidate, threshold=threshold, slack_inflation=slack_inflation
    )
    if nodes == "idle":
        assert same_bits(got.expected_start, site.clock.now)


@pytest.mark.parametrize("processors", [1, 4])
@pytest.mark.parametrize("nodes", EMPTY_POOL_NODES)
def test_an_empty_pool_refuses_a_negative_rpt_as_the_oracle(processors, nodes):
    site = build_site(FirstPrice(), processors, nodes, queued=[])
    candidate = make_task(40.0, 10.0, 100.0, 1.0)
    candidate.estimated_remaining = -1.0
    messages = []
    for admission in (SlackAdmission(0.0), OracleAdmission(0.0)):
        with pytest.raises(SchedulingError, match=r"negative RPT -1\.0 at position 0") as info:
            admission.evaluate(site, candidate)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


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
    decision = SlackAdmission(-math.inf, discount_rate=0.02).evaluate(site, candidate)
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
    site.processors = type("NoNodes", (), {"free_count": 0, "free_times": lambda self, now: []})()
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


# ----------------------------------------------------------------------
# The scalar path: a probe of fewer than SCALAR_PROBE_ROWS rows that
# never expires, under a heuristic that declares its affine key, is
# ranked in Python floats (PendingPool.affine_probe); anything else keeps
# the vector path.  Either way the oracle's vector body is the reference.
# ----------------------------------------------------------------------

#: wrappers inherit no affine key: their scores are not the affine ones
WRAPPED = {
    "survival": lambda: SurvivalDiscount(
        FirstReward(alpha=0.3, discount_rate=0.01), ExponentialSurvival(400.0)
    ),
    "delegate": lambda: SpyHeuristic(FirstReward(alpha=0.3, discount_rate=0.01)),
}

#: the pool's coefficient rows before the evaluation
ROW_STATES = ("bound", "unbound", "stale", "other_key", "mixed")

queued_rows = st.tuples(
    st.floats(min_value=0.0, max_value=40.0),                  # arrival
    st.floats(min_value=0.01, max_value=400.0),                # runtime
    st.sampled_from([-50.0, 0.0, 0.1, 80.0, 3000.0]),          # value
    st.sampled_from([5e-324, 0.05, 0.4, 3.0]),                 # decay
)


def prime_rows(site, state, queued):
    """Put the site's coefficient rows in *state* and queue *queued*."""
    for task in queued:
        site.pool.add(task)
    now = site.clock.now
    if state == "bound":
        site.heuristic.scores(site.pool.columns(), now)
    elif state == "other_key":
        FirstReward(alpha=0.5, discount_rate=0.5).scores(site.pool.columns(), now)
    elif state == "stale":
        site.heuristic.scores(site.pool.columns(), now)
        bounded = make_task(now, 20.0, 60.0, 0.2, bound=5.0)
        site.pool.add(bounded)
        site.pool.remove(bounded)
    elif state == "mixed":
        site.pool.add(make_task(now, 20.0, 60.0, 0.2, bound=5.0))


def primed_site(make_heuristic, processors, nodes, state, queued_spec):
    queued = [make_task(a, r, v, d) for a, r, v, d in queued_spec]
    site = build_site(make_heuristic(), processors, nodes, queued=[])
    prime_rows(site, state, queued)
    return site


def pool_expiration(vf):
    """The pool's ``expiration`` of a row (zero decay: 0.0, not inf)."""
    return (vf.value + vf.bound_or_inf()) / vf.decay if vf.decay > 0.0 else 0.0


def takes_the_scalar_path(site, candidate):
    """The dispatch rule, restated: every condition of affine_probe."""
    key = site.heuristic.affine_key
    rows = site.pool._rows
    columns = site.pool.columns()
    return (
        key is not None
        and len(site.pool) > 0
        and len(site.pool) + 1 < SCALAR_PROBE_ROWS
        and columns.never_expires
        and pool_expiration(candidate.linear_vf) == math.inf
        and rows.key in (None, key)
    )


def vector_probes():
    """Counts the vector path's probes (``PendingPool.probe`` calls)."""
    return mock.patch.object(PendingPool, "probe", autospec=True, side_effect=PendingPool.probe)


def decide_on_twins(make_heuristic, processors, nodes, state, queued_spec, candidate_row,
                    clone=None):
    """The change on one site and the oracle on an identical twin."""
    sites = [primed_site(make_heuristic, processors, nodes, state, queued_spec)
             for _ in range(2)]
    candidates = []
    for site in sites:
        if clone is None:
            candidates.append(candidate_from(candidate_row))
        else:  # an exact twin of a queued task: every score tie included
            twin = site.pool.task_at(clone % len(site.pool))
            candidates.append(make_task(twin.arrival, twin.runtime, twin.vf.value,
                                        twin.vf.decay, twin.vf.penalty_bound))
    scalar = takes_the_scalar_path(sites[0], candidates[0])
    with vector_probes() as probe:
        got = SlackAdmission(0.0).evaluate(sites[0], candidates[0])
    assert (not probe.called) == (scalar or not len(sites[0].pool))
    want = OracleAdmission(0.0).evaluate(sites[1], candidates[1])
    assert_same_decision(got, want)
    if len(sites[0].pool):  # (an empty pool is answered without scoring)
        # the scalar path binds and refreshes the rows as the vector one does
        state_of = [(s.pool._rows.key, s.pool._rows.fresh) for s in sites]
        assert state_of[0] == state_of[1]
    return scalar


@pytest.mark.parametrize("heuristic_name", sorted(HEURISTICS) + sorted(WRAPPED))
@pytest.mark.parametrize("processors", [1, 4])
@pytest.mark.parametrize("nodes", ["idle", "busy", "one_down", "all_down"])
@settings(max_examples=12, deadline=None)
@given(
    queued_spec=st.lists(queued_rows, min_size=0, max_size=10),
    candidate_row=candidates,
    state=st.sampled_from(ROW_STATES),
    clone=st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
)
def test_both_sides_of_the_row_limit_equal_the_oracle(
    heuristic_name, processors, nodes, queued_spec, candidate_row, state, clone
):
    make = HEURISTICS.get(heuristic_name) or WRAPPED[heuristic_name]
    if not queued_spec:
        clone = None
    scalar = decide_on_twins(make, processors, nodes, state, queued_spec, candidate_row, clone)
    if heuristic_name in WRAPPED:
        assert not scalar


@pytest.mark.parametrize("heuristic_name", sorted(HEURISTICS))
def test_the_limit_is_where_the_path_changes(heuristic_name):
    spec = [(float(i), 30.0 + 7.0 * i, 90.0 + 13.0 * i, 0.1 + 0.2 * i) for i in range(9)]
    row = (40.0, 55.0, 300.0, 0.5, None, None)
    paths = []
    for depth in range(len(spec) + 1):
        paths.append(decide_on_twins(HEURISTICS[heuristic_name], 4, "busy", "bound",
                                     spec[:depth], row))
    # depth 0 is the closed form; depth + 1 rows < 8 is the scalar path
    assert paths == [False] + [True] * (SCALAR_PROBE_ROWS - 2) + [False] * 3


def scored(site, candidate):
    """The vector path's scores of *site*'s probe with *candidate*."""
    return site.heuristic.scores(site.pool.probe(candidate), site.clock.now)


#: (queued value, queued RPT) — FirstPrice scores an on-time row v / RPT
#: on its head alone, so 0.0 and -0.0 heads tie, and a vast value over a
#: clamped RPT is an infinite head that 0.0 · inf turns into NaN
SIGNED = {
    "zero_ties_candidate": ([(0.0, None), (5.0, None), (0.0, None)], (0.0, None)),
    "negative_zero_candidate": ([(0.0, None), (0.0, None)], (-0.0, -0.0)),
    "negative_zero_queued": ([(-0.0, -0.0), (4.0, None)], (0.0, None)),
    "nan_queued": ([(1e300, 1e-12), (4.0, None), (2.0, None)], (3.0, None)),
    "nan_candidate": ([(4.0, None), (2.0, None)], (1e300, 1e-12)),
    "nan_everywhere": ([(1e300, 1e-12), (1e300, 1e-12)], (1e300, 1e-12)),
}


@pytest.mark.parametrize("case", sorted(SIGNED))
@pytest.mark.parametrize("processors", [1, 4])
def test_signed_zero_and_nan_scores_rank_as_the_vector_sort(case, processors):
    queued_spec, candidate_spec = SIGNED[case]

    def task_of(value, rpt):
        task = make_task(40.0, 50.0 if rpt is None else 1e-12, value, 1e300 if rpt else 0.5)
        if rpt == 0.0:
            task.estimated_remaining = rpt  # -0.0: a zero the < 0 check lets through
        return task

    def site_and_candidate():
        site = build_site(FirstPrice(), processors, "busy", [task_of(*q) for q in queued_spec])
        return site, task_of(*candidate_spec)

    site, candidate = site_and_candidate()
    scores = scored(site, candidate)
    if case.startswith("nan"):
        assert np.isnan(scores).any()
    else:
        assert (scores == 0.0).sum() >= 2  # a tie among zeros ...
        if "negative" in case:  # ... of both signs
            assert np.signbit(scores[scores == 0.0]).any()
    site, candidate = site_and_candidate()
    with vector_probes() as probe:
        got = SlackAdmission(0.0).evaluate(site, candidate)
    assert not probe.called  # the scalar path ranked it
    twin, twin_candidate = site_and_candidate()
    assert_same_decision(got, OracleAdmission(0.0).evaluate(twin, twin_candidate))


@pytest.mark.parametrize("processors", [1, 4])
def test_the_scalar_path_keeps_the_refusals(processors):
    def site():
        return build_site(FirstReward(alpha=0.3, discount_rate=0.01), processors, "busy",
                          [make_task(float(i), 30.0, 80.0, 0.3) for i in range(3)])

    candidate = make_task(40.0, 10.0, 100.0, 1.0)
    candidate.estimated_remaining = -1.0
    messages = []
    with vector_probes() as probe:
        with pytest.raises(SchedulingError, match=r"negative RPT -1\.0 at position \d") as info:
            SlackAdmission(0.0).evaluate(site(), candidate)
    assert not probe.called  # refused on the scalar path
    messages.append(str(info.value))
    with pytest.raises(SchedulingError, match=r"negative RPT -1\.0 at position \d") as info:
        OracleAdmission(0.0).evaluate(site(), candidate)
    messages.append(str(info.value))
    assert messages[0] == messages[1]
    wide = Task(40.0, 10.0, LinearDecayValueFunction(100.0, 1.0), demand=2)
    with pytest.raises(AdmissionError, match="single-node"):
        SlackAdmission(0.0).evaluate(site(), wide)
    nodeless = site()
    nodeless.processors = type("NoNodes", (), {"free_count": 0, "free_times": lambda self, now: []})()
    with pytest.raises(SchedulingError, match="at least one processor"):
        SlackAdmission(0.0).evaluate(nodeless, make_task(40.0, 10.0, 100.0, 1.0))


class HandRows:
    """A pool's row state stand-in: hands a view the rows it was given."""

    def __init__(self, coefficients):
        self.coefficients = coefficients

    def rows(self, key, n):
        return self.coefficients


def vector_place(rows, alpha, estimate, now, free_times):
    """The vector body on hand-built rows: ``affine_scores``, the stable
    argsort, the array projection and the gathered Eq. 8 sum."""
    late, head, slope, cost, remaining, decay = (np.array(r) for r in rows)
    n = len(late)
    inf = np.full(n, math.inf)
    cols = PoolColumns(inf, inf, remaining, inf, decay, inf, expiration=inf, expiring=0)
    cols._source = HandRows(np.array([late, head, slope, cost]))
    scores = affine_scores(cols, now, (alpha, 0.0))
    order = np.argsort(-scores, kind="stable")
    position = order.tolist().index(n - 1)
    start = project_next_start(remaining[order], free_times, position)
    if position == n - 1:
        return start, 0.0
    return start, float(estimate * decay[order[position + 1 :]].sum())


#: finite, signed-zero, infinite and NaN coefficients, so that scores
#: tie, cancel to ±0.0 and go NaN
awkward = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.1, 0.7, 3.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]
)
shallow_rows = st.integers(min_value=1, max_value=SCALAR_PROBE_ROWS - 1).flatmap(
    lambda n: st.tuples(
        st.lists(awkward, min_size=n, max_size=n),                          # late
        st.lists(awkward, min_size=n, max_size=n),                          # head
        st.lists(awkward, min_size=n, max_size=n),                          # slope
        st.lists(awkward, min_size=n, max_size=n),                          # cost
        st.lists(st.sampled_from([0.0, 0.5, 7.0, 1e6]), min_size=n, max_size=n),  # RPT
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=n, max_size=n),  # decay
    )
)


@settings(max_examples=200, deadline=None)
@given(
    rows=shallow_rows,
    alpha=st.sampled_from([0.0, 0.3, 1.0]),
    now=st.sampled_from([-0.0, 0.0, 5.0, 1e300]),
    free_times=st.lists(st.sampled_from([0.0, 3.0, 40.5, math.inf]), min_size=1, max_size=4),
)
def test_the_scalar_placement_is_the_vector_placement(rows, alpha, now, free_times):
    rows = [list(row) for row in rows]
    got = _place_shallow(rows, alpha, 60.0, now, free_times)
    want = vector_place(rows, alpha, 60.0, now, free_times)
    assert all(same_bits(a, b) for a, b in zip(got, want)), (got, want)


def test_a_tie_that_only_a_left_to_right_score_sum_makes():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right and 0.6 exactly
    # rounded: the candidate ties the first row only on the former, and
    # a tie ranks it behind that row
    decay = [0.1, 0.2, 0.3]
    total = 0.0
    for d in decay:
        total += d
    head = [1.0 - total, -5.0, 1.0]
    rows = [[math.inf] * 3, head, [0.0] * 3, [0.0, 0.0, 1.0], [10.0, 20.0, 30.0], decay]
    got = _place_shallow(rows, 0.3, 60.0, 0.0, [0.0])
    assert got == vector_place(rows, 0.3, 60.0, 0.0, [0.0]) == (10.0, 60.0 * 0.2)


# ----------------------------------------------------------------------
# A shallow quote writes nothing: the pool hands over its own rows and
# the candidate's terms are computed, not written into the spare column.
# ----------------------------------------------------------------------

#: the coefficient rows before the evaluation, on a never-expires pool
SHALLOW_STATES = ("bound", "unbound", "stale")


@pytest.mark.parametrize("heuristic_name", sorted(HEURISTICS))
@pytest.mark.parametrize("state", SHALLOW_STATES)
@pytest.mark.parametrize("depth", range(SCALAR_PROBE_ROWS - 1))
@settings(max_examples=8, deadline=None)
@given(queued_spec=st.lists(queued_rows, min_size=6, max_size=6), candidate_row=candidates)
def test_a_shallow_evaluation_writes_nothing(
    heuristic_name, state, depth, queued_spec, candidate_row
):
    arrival, runtime, value, decay, _, misestimate = candidate_row
    candidate = candidate_from((arrival, runtime, value, decay or 0.05, None, misestimate))
    sites = [primed_site(HEURISTICS[heuristic_name], 4, "busy", state, queued_spec[:depth])
             for _ in range(2)]
    site, twin = sites
    pool = site.pool
    before = pool._data.copy()
    state_before = (pool._rows.key, pool._rows.fresh)
    with vector_probes() as probe:
        got = SlackAdmission(0.0).evaluate(site, candidate)
    assert not probe.called
    assert_same_decision(got, OracleAdmission(0.0).evaluate(twin, candidate))
    rows = (pool._rows.key, pool._rows.fresh)
    if depth:
        # bound and refreshed as the twin's vector probe binds and
        # refreshes them
        assert rows == (twin.pool._rows.key, twin.pool._rows.fresh)
        assert rows == (site.heuristic.affine_key, True)
    else:  # the closed form reads no rows
        assert rows == state_before
    after = pool._data
    if state == "bound" or not depth:
        assert after.tobytes() == before.tobytes()
        return
    # a bind or refresh writes the pool's own coefficient rows, as a
    # scoring of its view would, and nothing else
    coefficients = slice(_LATE, None)
    assert np.delete(after, coefficients, axis=0).tobytes() == np.delete(
        before, coefficients, axis=0
    ).tobytes()
    assert after[_LATE:, depth:].tobytes() == before[_LATE:, depth:].tobytes()
    written = affine_coefficients(*after[_ARRIVAL:_BOUND, :depth], *site.heuristic.affine_key)
    assert after[_LATE:, :depth].tobytes() == written.tobytes()


@pytest.mark.parametrize("key", [(1.0, 0.0), (1.0, 0.02), (0.3, 0.01), (0.0, 0.01)])
@pytest.mark.parametrize("state", SHALLOW_STATES)
@settings(max_examples=40, deadline=None)
@given(
    queued_spec=st.lists(queued_rows, min_size=1, max_size=SCALAR_PROBE_ROWS - 2),
    arrival=st.floats(min_value=0.0, max_value=40.0),
    runtime=st.floats(min_value=1e-12, max_value=5000.0),
    value=st.floats(min_value=-1e4, max_value=1e6),
    decay=st.floats(min_value=5e-324, max_value=50.0),
    misestimate=st.sampled_from([None, 1e-9, 0.37, 1.0, 3.0]),
)
def test_the_probe_rows_are_the_probe_views_rows(
    key, state, queued_spec, arrival, runtime, value, decay, misestimate
):
    """Every term the scalar path ranks, the candidate's included, is the
    vector path's coefficient row, bit for bit."""
    estimate = None if misestimate is None else runtime * misestimate

    def site_and_candidate():
        heuristic = FirstReward(alpha=key[0], discount_rate=key[1])
        site = primed_site(lambda: heuristic, 2, "idle", state, queued_spec)
        return site, make_task(arrival, runtime, value, decay, None, estimate)

    site, candidate = site_and_candidate()
    rows = site.pool.affine_probe(candidate, key)
    twin, twin_candidate = site_and_candidate()
    view = twin.pool.probe(twin_candidate)
    want = [*view.affine(key), view.remaining, view.decay]
    assert len(rows) == len(want) == 6
    for got_row, want_row in zip(rows, want):
        assert all(type(x) is float for x in got_row)
        assert np.array(got_row).tobytes() == want_row.tobytes()


def test_the_decision_is_read_only_with_its_eight_fields_in_order():
    assert FIELDS == (
        "accept", "slack", "expected_start", "expected_completion",
        "expected_delay", "expected_yield", "present_value", "cost",
    )
    site = build_site(FirstReward(alpha=0.3, discount_rate=0.01), 2, "busy",
                      [make_task(0.0, 30.0, 80.0, 0.3)])
    decision = SlackAdmission(0.0).evaluate(site, make_task(40.0, 60.0, 300.0, 0.5))
    assert type(decision) is AdmissionDecision
    assert [getattr(decision, name) for name in FIELDS] == list(decision)
    for name in (*FIELDS, "extra"):
        with pytest.raises(AttributeError):
            setattr(decision, name, 0.0)
