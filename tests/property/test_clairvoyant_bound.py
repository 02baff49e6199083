"""No heuristic beats a clairvoyant: the site against a brute-force optimum.

On one node a non-preemptive schedule is a chosen subset of the tasks
run in some order, each as early as its release and the node allow
(starting a task later never raises a non-increasing value function).
:func:`clairvoyant_optimum` enumerates every subset in every order, so
it knows every arrival in advance, and a task left out earns 0.  The
site sees tasks only as they arrive and pays a task it drops its
penalty floor, so whatever heuristic, admission policy or discard rule
it runs, it never earns more than that optimum (Gopalakrishnan,
*Improving rewards in overloaded real-time systems*).  Preempt-resume
is left out: a preemptive site can beat every non-preemptive schedule.

Smith's rule pins one heuristic exactly: tasks with unbounded linear
penalties that wait together are best run in decreasing decay/RPT
order, which is what SWPT does.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import SWPT, FirstPrice, FirstReward, PresentValue
from repro.site import SlackAdmission, simulate_site
from repro.workload.trace import Trace

HEURISTICS = {
    "firstprice": FirstPrice,
    "presentvalue": PresentValue,
    "firstreward-0": lambda: FirstReward(alpha=0.0),
    "firstreward-0.3": lambda: FirstReward(alpha=0.3),
    "firstreward-1": lambda: FirstReward(alpha=1.0),
    "swpt": SWPT,
}


def earned(job: tuple, end: float) -> float:
    """Eq. 1 for *job* = (arrival, runtime, value, decay, bound) ending at *end*."""
    arrival, runtime, value, decay, bound = job
    return max(value - decay * (end - arrival - runtime), -bound)


def in_order(jobs: tuple, free_at: float) -> float:
    """What *jobs* earn run back to back in this order from *free_at* on."""
    total = 0.0
    for job in jobs:
        free_at = max(free_at, job[0]) + job[1]
        total += earned(job, free_at)
    return total


def clairvoyant_optimum(jobs: list[tuple], free_at: float = 0.0) -> float:
    """The most one node can earn from *jobs*, non-preemptively, over
    every subset in every order."""
    best = 0.0

    def extend(free_at: float, left: tuple, total: float) -> None:
        nonlocal best
        best = max(best, total)
        for k, job in enumerate(left):
            end = max(free_at, job[0]) + job[1]
            extend(end, left[:k] + left[k + 1:], total + earned(job, end))

    extend(free_at, tuple(jobs), 0.0)
    return best


def as_trace(jobs: list[tuple]) -> Trace:
    arrival, runtime, value, decay, bound = (np.array(c, dtype=float) for c in zip(*jobs))
    return Trace(arrival, runtime, value, decay, bound)


@st.composite
def job(draw, arrival=None, bounded=None) -> tuple:
    if arrival is None:
        arrival = draw(
            st.one_of(
                st.integers(0, 12).map(float),  # simultaneous releases
                st.floats(0.0, 40.0, allow_nan=False),
            )
        )
    value = draw(st.floats(1.0, 200.0, allow_nan=False))
    if bounded is None:
        bounded = draw(st.booleans())
    return (
        arrival,
        draw(st.floats(0.5, 20.0, allow_nan=False)),
        value,
        draw(st.floats(0.0, 10.0, allow_nan=False)),
        draw(st.floats(0.0, value, allow_nan=False)) if bounded else math.inf,
    )


@settings(max_examples=200, deadline=None)
@given(
    jobs=st.lists(job(), min_size=1, max_size=6).map(lambda js: sorted(js, key=lambda j: j[0])),
    threshold=st.floats(0.0, 40.0, allow_nan=False),
)
def test_no_heuristic_earns_more_than_the_clairvoyant_optimum(jobs, threshold):
    trace = as_trace(jobs)
    best = clairvoyant_optimum(jobs)
    for (name, make), admit, discard in itertools.product(
        HEURISTICS.items(), (False, True), (False, True)
    ):
        result = simulate_site(
            trace,
            make(),
            processors=1,
            admission=SlackAdmission(threshold=threshold) if admit else None,
            discard_expired=discard,
        )
        assert result.total_yield <= best + 1e-9 * max(1.0, abs(best)), (
            name, admit, discard, result.total_yield, best,
        )


@settings(max_examples=100, deadline=None)
@given(
    blocker=st.floats(5.0, 50.0, allow_nan=False),
    release=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    waiting=st.integers(2, 6).flatmap(
        lambda k: st.lists(job(arrival=0.0, bounded=False), min_size=k, max_size=k)
    ),
)
def test_swpt_is_smiths_rule_for_tasks_that_wait_together(blocker, release, waiting):
    """k unbounded tasks arrive together while a blocker holds the node:
    SWPT earns the best any order of them earns."""
    start = release * blocker
    jobs = [(start, *job[1:]) for job in waiting]
    trace = as_trace([(0.0, blocker, 1.0, 0.0, math.inf), *jobs])
    result = simulate_site(trace, SWPT(), processors=1)
    swpt = sum(r.realized_yield for r in result.ledger.records if r.arrival > 0.0)
    best = max(in_order(order, blocker) for order in itertools.permutations(jobs))
    assert math.isclose(swpt, best, rel_tol=1e-9, abs_tol=1e-9), (swpt, best)
