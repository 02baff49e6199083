"""An oracle the system did not write: an FCFS site is an M/M/c queue.

Exponential inter-arrivals and durations (the default
:class:`~repro.workload.spec.WorkloadSpec`), *c* processors, no admission
and no preemption: the site must reproduce Erlang C's mean queue wait
``W_q`` and the utilisation ``ρ``.  Each seed's mean over the tasks past
a warm-up is one sample; the closed form must lie inside the seeds' 95 %
interval (:func:`~repro.metrics.stats.mean_and_ci`).  This is the base
case of Mazzucco & Mitrani's service-stream model (*Allocation and
Admission Policies for Service Streams*).
"""

import math

import pytest

from repro.metrics.stats import mean_and_ci
from repro.scheduling import FCFS
from repro.site import simulate_site
from repro.workload import WorkloadSpec, generate_trace

C = 4
N_TASKS = 20_000
WARM_UP = 2_000
SEEDS = range(5)


def erlang_c_wait(c: int, rho: float, mean_runtime: float) -> float:
    """Mean wait in queue of M/M/c at utilisation *rho* (Erlang C)."""
    a = c * rho  # offered load in servers
    tail = a**c / math.factorial(c) / (1.0 - rho)
    p_wait = tail / (sum(a**k / math.factorial(k) for k in range(c)) + tail)
    return p_wait * mean_runtime / (c * (1.0 - rho))


def test_erlang_c_matches_a_hand_computed_case():
    # c = 2, ρ = 0.5: P(wait) = 1/3, W_q = (1/3)·1/(2·0.5)
    assert erlang_c_wait(2, 0.5, 1.0) == pytest.approx(1.0 / 3.0)
    # c = 1 is M/M/1: W_q = ρ/(1 − ρ) mean runtimes
    assert erlang_c_wait(1, 0.8, 1.0) == pytest.approx(4.0)


def one_seed(rho: float, seed: int) -> tuple[float, float]:
    """Mean queue wait and utilisation of one seeded run past the warm-up."""
    spec = WorkloadSpec(n_jobs=N_TASKS, processors=C, load_factor=rho)
    result = simulate_site(generate_trace(spec, seed=seed), FCFS(), C, keep_records=False)
    tasks = result.tasks[WARM_UP:]
    wait = sum(t.last_start - t.arrival for t in tasks) / len(tasks)
    # busy node-time inside [first kept arrival, last arrival], over its span
    lo, hi = tasks[0].arrival, tasks[-1].arrival
    busy = sum(
        max(0.0, min(t.completion, hi) - max(t.last_start, lo)) for t in result.tasks
    )
    return wait, busy / (C * (hi - lo))


@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_an_fcfs_site_is_an_m_m_c_queue(rho):
    runs = [one_seed(rho, seed) for seed in SEEDS]
    wait = mean_and_ci([w for w, _ in runs])
    utilisation = mean_and_ci([u for _, u in runs])
    want = erlang_c_wait(C, rho, WorkloadSpec().duration.mean)
    assert wait.ci_low <= want <= wait.ci_high, (wait, want)
    assert utilisation.ci_low <= rho <= utilisation.ci_high, utilisation
