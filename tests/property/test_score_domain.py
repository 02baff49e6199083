"""The score domain (:mod:`repro.domain`): in-domain inputs score finite,
and inputs past it are refused where they enter.

Every magnitude a task, a value function, a bid or a discount rate
carries is at most ``B = MAX_MAGNITUDE``.  On that domain every shipped
scorer returns finite scores, with no floating-point warning, on a pool
and on the preemption pass's pending ∪ running union — values at ``±B``
and ``5e-324``, running rows whose believed RPT is zero, and a clock far
past ``B``.  The scalar and vector admission paths still agree bit for
bit there.  And ``0 ≤ RPT ≤ estimate`` holds through every lifecycle a
task can take, which is what lets the projection take RPTs unchecked.
"""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.domain import MAX_MAGNITUDE as B
from repro.errors import AdmissionError, MarketError, SchedulingError, ValueFunctionError
from repro.faults.survival import ExponentialSurvival
from repro.scheduling import (
    FCFS,
    SRPT,
    SWPT,
    FirstPrice,
    FirstReward,
    PendingPool,
    PresentValue,
    SurvivalDiscount,
)
from repro.scheduling.generic import GenericFirstReward, GenericPresentValue
from repro.site import ProcessorPool, SlackAdmission
from repro.tasks import Task, TaskState
from repro.tasks.bid import TaskBid
from repro.valuefn import LinearDecayValueFunction

from tests.property.test_lone_admission import (
    OracleAdmission,
    assert_same_decision,
    build_site,
    pool_expiration,
    vector_probes,
)

#: the first float past the domain's edge
PAST_B = math.nextafter(B, math.inf)

#: every shipped scorer; the last runs its discount rate at the edge
SCORERS = {
    "firstreward0": lambda: FirstReward(alpha=0.0, discount_rate=0.01),
    "firstreward0.3": lambda: FirstReward(alpha=0.3, discount_rate=0.01),
    "firstreward1": lambda: FirstReward(alpha=1.0, discount_rate=0.01),
    "pv": lambda: PresentValue(0.02),
    "firstprice": FirstPrice,
    "fcfs": FCFS,
    "srpt": SRPT,
    "swpt": SWPT,
    "survival": lambda: SurvivalDiscount(
        FirstReward(alpha=0.3, discount_rate=0.01), ExponentialSurvival(400.0)
    ),
    "firstreward-rate-b": lambda: FirstReward(alpha=0.3, discount_rate=B),
}

magnitudes = st.sampled_from([0.0, 5e-324, 1e-9, 1.0, 37.5, 1e6, B])
signed = st.one_of(magnitudes, magnitudes.map(lambda x: -x))
durations = st.sampled_from([5e-324, 1e-9, 1.0, 60.0, 1e6, B])
#: clocks from the start of time to far past B
clocks = st.sampled_from([0.0, 40.0, B, 5e101])


@st.composite
def in_domain_tasks(draw) -> Task:
    value = draw(signed)
    bound = draw(st.one_of(st.none(), magnitudes))
    if bound is not None and bound < -value:
        bound = -value  # the floor at the value: the highest one allowed
    return Task(
        draw(magnitudes),
        draw(durations),
        LinearDecayValueFunction(value, draw(magnitudes), bound),
        estimate=draw(st.one_of(st.none(), durations)),
    )


def union_at(pending, running, started, now):
    """A pool of *pending* and the processors' pending ∪ running view with
    *running* started at *started* (clamped to *now*): a start at least
    an estimate before *now* leaves a believed RPT of zero."""
    pool = PendingPool()
    for task in pending:
        pool.add(task)
    processors = ProcessorPool(max(1, len(running)))
    for task, start in zip(running, started):
        task = copy.copy(task)
        task.last_start = min(start, now)
        processors.assign(task, task.last_start)
    return pool, processors.union(pool, now)


@pytest.mark.parametrize("name", sorted(SCORERS))
@settings(max_examples=60, deadline=None)
@given(
    pending=st.lists(in_domain_tasks(), min_size=1, max_size=9),
    running=st.lists(in_domain_tasks(), max_size=4),
    started=st.lists(clocks, min_size=4, max_size=4),
    now=clocks,
    later=clocks,
)
def test_every_shipped_scorer_is_finite_on_the_domain(
    name, pending, running, started, now, later
):
    heuristic = SCORERS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pool, union = union_at(pending, running, started, now)
        # the union, then the pool's own view at two clock readings: the
        # affine rows, the floor rows and the row form, whichever serve
        for cols, at in ((union, now), (pool.columns(), now), (pool.columns(), max(now, later))):
            scores = heuristic.scores(cols, at)
            assert len(scores) == len(cols)
            assert np.isfinite(scores).all(), (name, scores)


@pytest.mark.parametrize("name", ["firstprice", "pv", "firstreward0", "firstreward0.3",
                                  "firstreward1", "firstreward-rate-b"])
@pytest.mark.parametrize("nodes", ["idle", "all_down"])
@settings(max_examples=30, deadline=None)
@given(
    queued=st.lists(in_domain_tasks(), min_size=1, max_size=6),
    candidate=in_domain_tasks(),
    at=st.sampled_from([40.0, B, 5e101]),
)
def test_the_scalar_path_is_the_vector_path_on_the_domain(name, nodes, queued, candidate, at):
    # rows that never expire only: the scalar path ranks never-expires probes
    queued = [t for t in queued if pool_expiration(t.linear_vf) == math.inf]
    if not queued or pool_expiration(candidate.linear_vf) != math.inf:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sites = [build_site(SCORERS[name](), 4, nodes, copy.deepcopy(queued), at=at)
                 for _ in range(2)]
        with vector_probes() as probe:
            got = SlackAdmission(0.0).evaluate(sites[0], copy.deepcopy(candidate))
        assert not probe.called  # the scalar path ranked it
        want = OracleAdmission(0.0).evaluate(sites[1], copy.deepcopy(candidate))
    assert_same_decision(got, want)


# ----------------------------------------------------------------------
# The edge: B is taken, the next float and anything non-finite refused
# ----------------------------------------------------------------------

PAST = [PAST_B, -PAST_B, math.inf, -math.inf, math.nan, 1e300]


def test_the_edge_itself_is_in_the_domain():
    vf = LinearDecayValueFunction(-B, B, B)
    Task(B, B, vf, estimate=B)
    TaskBid(runtime=B, value=B, decay=B, bound=B)
    for make in (FirstReward, PresentValue, GenericFirstReward, GenericPresentValue):
        make(discount_rate=B)
    SlackAdmission(discount_rate=B)


@pytest.mark.parametrize("x", PAST)
@pytest.mark.parametrize("field", ["value", "decay", "penalty_bound"])
def test_a_value_function_refuses_a_magnitude_past_b(field, x):
    terms = {"value": 1.0, "decay": 1.0, "penalty_bound": None, field: x}
    with pytest.raises(ValueFunctionError):
        LinearDecayValueFunction(**terms)


@pytest.mark.parametrize("x", PAST)
@pytest.mark.parametrize("field", ["arrival", "runtime", "estimate"])
def test_a_task_refuses_a_time_past_b(field, x):
    terms = {"arrival": 0.0, "runtime": 1.0, "estimate": None, field: x}
    with pytest.raises(SchedulingError, match=f"{field} must be in"):
        Task(vf=LinearDecayValueFunction(1.0, 1.0), **terms)


@pytest.mark.parametrize("x", PAST)
def test_a_bid_refuses_a_runtime_or_value_past_b(x):
    with pytest.raises(MarketError, match="runtime must be in"):
        TaskBid(runtime=x, value=1.0, decay=1.0)
    with pytest.raises(ValueFunctionError):
        TaskBid(runtime=1.0, value=x, decay=1.0)


@pytest.mark.parametrize("rate", [math.inf, math.nan, PAST_B, 1e300, -1.0])
def test_every_discount_rate_is_refused_past_b(rate):
    for make in (
        lambda: FirstReward(alpha=0.3, discount_rate=rate),
        lambda: PresentValue(rate),
        lambda: GenericFirstReward(discount_rate=rate),
        lambda: GenericPresentValue(rate),
    ):
        with pytest.raises(SchedulingError, match="discount_rate must be in"):
            make()
    with pytest.raises(AdmissionError, match="discount_rate must be in"):
        SlackAdmission(discount_rate=rate)


# ----------------------------------------------------------------------
# The RPT invariant the projection relies on
# ----------------------------------------------------------------------

class TaskLifecycle(RuleBasedStateMachine):
    """One task through submit, accept, start, preempt, crash and
    complete at in-domain times, its clock moved the way the engine moves
    it: a run ends at or before ``last_start + remaining``."""

    def __init__(self):
        super().__init__()
        self.task = None
        self.now = 0.0

    @initialize(
        arrival=st.one_of(magnitudes, st.floats(min_value=0.0, max_value=B)),
        runtime=st.one_of(durations, st.floats(min_value=5e-324, max_value=B)),
        estimate=st.one_of(st.none(), durations, st.floats(min_value=5e-324, max_value=B)),
    )
    def submit(self, arrival, runtime, estimate):
        self.task = Task(arrival, runtime, LinearDecayValueFunction(100.0, 1.0),
                         estimate=estimate)
        self.now = arrival
        self.task.submit()

    @precondition(lambda self: self.task.state is TaskState.SUBMITTED)
    @rule()
    def accept(self):
        self.task.accept()

    @precondition(lambda self: self.task.state is TaskState.QUEUED)
    @rule(wait=st.one_of(magnitudes, st.floats(min_value=0.0, max_value=B)))
    def start(self, wait):
        self.now += wait
        self.task.start(self.now)

    @precondition(lambda self: self.task.state is not TaskState.RUNNING)
    @rule(wait=magnitudes)
    def idle(self, wait):
        self.now += wait  # time passes while the task waits, or after it

    def _run_for(self, share):
        """A clock reading *share* of the way through the run, at most its
        end: the instant the kernel's completion event fires,
        ``last_start + remaining``."""
        task = self.task
        end = task.last_start + task.remaining
        self.now = min(task.last_start + share * task.remaining, end)
        return self.now

    @precondition(lambda self: self.task.state is TaskState.RUNNING)
    @rule(share=st.floats(min_value=0.0, max_value=1.0))
    def preempt(self, share):
        self.task.preempt(self._run_for(share))

    @precondition(lambda self: self.task.state is TaskState.RUNNING)
    @rule(share=st.floats(min_value=0.0, max_value=1.0))
    def crash(self, share):
        self.task.crash(self._run_for(share))

    @precondition(lambda self: self.task.state is TaskState.RUNNING)
    @rule()
    def complete(self):
        self.task.complete(self._run_for(1.0))

    @invariant()
    def rpt_within_the_estimate(self):
        task = self.task
        if task is None:
            return
        assert 0.0 <= task.estimated_remaining <= task.estimate
        assert 0.0 <= task.remaining <= task.runtime


TestTaskLifecycle = TaskLifecycle.TestCase
TestTaskLifecycle.settings = settings(max_examples=150, stateful_step_count=30, deadline=None)


@pytest.mark.parametrize("start,runtime", [(1e8, 1e-8), (123456789.0, 0.2), (B, 1e84)])
def test_a_run_preempted_as_its_completion_falls_due(start, runtime):
    """The completion event fires at ``last_start + remaining``; a pass at
    that instant preempts a run whose ``now − last_start`` rounds past
    ``remaining``, and the RPT clamps at zero."""
    task = Task(start, runtime, LinearDecayValueFunction(1.0, 1.0))
    task.submit()
    task.accept()
    task.start(start)
    end = task.last_start + task.remaining
    task.preempt(end)
    assert task.remaining == task.estimated_remaining == max(0.0, runtime - (end - start))
