"""Scaling benches: how the hot kernels grow with problem size.

The opportunity-cost kernel is the reason FirstReward is usable at
5000-task pools: Eq. 4 evaluated naively is O(n²), the sort+prefix-sum
kernel is O(n log n).  These benches pin the scaling (and the
end-to-end events/second of the site engine) so a regression to
quadratic behaviour is caught by timing, not anecdote.
"""

import itertools

import numpy as np
import pytest

from repro.scheduling import FirstReward
from repro.scheduling.cost import opportunity_costs
from repro.site import simulate_site
from repro.workload import economy_spec, generate_trace


def _cost_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    remaining = rng.exponential(100.0, n)
    decay = rng.exponential(0.35, n)
    horizons = rng.exponential(300.0, n)
    horizons[rng.random(n) < 0.5] = np.inf
    return remaining, decay, horizons


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
def bench_cost_kernel_scaling(benchmark, n):
    remaining, decay, horizons = _cost_inputs(n)
    cost = benchmark(opportunity_costs, remaining, decay, horizons)
    assert cost.shape == (n,)


@pytest.mark.parametrize("n", [10_000])
def bench_firstreward_scores_large_pool(benchmark, n):
    from repro.scheduling.base import PoolColumns

    rng = np.random.default_rng(1)
    runtime = rng.exponential(100.0, n)
    cols = PoolColumns(
        arrival=np.zeros(n),
        runtime=runtime,
        remaining=runtime.copy(),
        value=rng.exponential(100.0, n),
        decay=rng.exponential(0.35, n),
        bound=np.where(rng.random(n) < 0.5, 0.0, np.inf),
    )
    heuristic = FirstReward(0.3, 0.01)
    # a moving clock: a repeated reading is served from the per-instant memo
    clock = itertools.count(500)
    scores = benchmark(lambda: heuristic.scores(cols, float(next(clock))))
    assert np.isfinite(scores).all()


@pytest.mark.parametrize("pool_size", [200, 1_000])
def bench_select_cycle_scaling(benchmark, pool_size):
    """One scheduling decision against a standing pool: columns ->
    scores -> argmax -> remove -> re-add.  With incremental column
    maintenance this must stay near-flat in pool size (the scores call
    is the only O(n) term); a rebuild-per-decision regression shows up
    as linear pool-maintenance growth."""
    from repro.scheduling import PendingPool
    from repro.tasks import Task
    from repro.valuefn import LinearDecayValueFunction

    rng = np.random.default_rng(0)
    pool = PendingPool()
    for i in range(pool_size):
        pool.add(
            Task(
                arrival=float(i),
                runtime=float(rng.exponential(100.0) + 1.0),
                vf=LinearDecayValueFunction(
                    float(rng.exponential(100.0)), float(rng.exponential(0.35)), None
                ),
            )
        )
    heuristic = FirstReward(0.3, 0.01)

    def work():
        cols = pool.columns()
        scores = heuristic.scores(cols, 500.0)
        task = pool.remove_at(int(np.argmax(scores)))
        pool.add(task)
        return len(pool)

    assert benchmark(work) == pool_size


@pytest.mark.parametrize("workers", [1, 2])
def bench_experiment_fanout_workers(benchmark, workers):
    """End-to-end experiment wall time vs worker count.  On multi-core
    hosts workers=2 should approach half the serial time; the output is
    byte-identical either way (the determinism contract)."""
    from repro.experiments.runner import run_experiment

    def work():
        return run_experiment(
            "fig6",
            n_jobs=300,
            seeds=(0, 1),
            load_factors=(0.5, 3.0),
            alphas=(0.0,),
            workers=workers,
        )

    result = benchmark.pedantic(work, rounds=1, iterations=1)
    assert result.rows


@pytest.mark.parametrize("n_jobs", [500, 2_000])
def bench_site_events_per_second(benchmark, n_jobs):
    trace = generate_trace(economy_spec(n_jobs=n_jobs, load_factor=1.0), seed=0)

    def work():
        result = simulate_site(
            trace, FirstReward(0.3, 0.01), processors=16, keep_records=False
        )
        return result.sim.events_fired

    events = benchmark.pedantic(work, rounds=1, iterations=1)
    assert events >= 2 * n_jobs  # at least one arrival + one completion each
