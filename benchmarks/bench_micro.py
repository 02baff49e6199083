"""Microbenchmarks of the hot kernels.

These time the building blocks every experiment leans on: the event
queue, the simulator loop, vectorized heuristic scoring, the
O(n log n) opportunity-cost kernel, candidate-schedule projection,
workload generation, and a small end-to-end site simulation.
"""

import itertools

import numpy as np

from repro.scheduling import (
    FirstPrice,
    FirstReward,
    PoolColumns,
    opportunity_costs,
    project_start_times,
)
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.queue import EventQueue
from repro.site import simulate_site
from repro.workload import economy_spec, generate_trace

N_TASKS = 5000


def _pool(n=N_TASKS, seed=0) -> PoolColumns:
    rng = np.random.default_rng(seed)
    runtime = rng.exponential(100.0, n)
    return PoolColumns(
        arrival=np.zeros(n),
        runtime=runtime,
        remaining=runtime.copy(),
        value=rng.exponential(100.0, n),
        decay=rng.exponential(0.35, n),
        bound=np.where(rng.random(n) < 0.5, 0.0, np.inf),
    )


def _ticking_scores(heuristic, cols, start=1000):
    """Score *cols* at a clock that moves on every call, as a running
    site's does — a repeated reading would be answered from the columns'
    per-instant memo instead of being computed."""
    clock = itertools.count(start)
    return lambda: heuristic.scores(cols, float(next(clock)))


def _tasks(n, seed=0):
    from repro.tasks import Task
    from repro.valuefn import LinearDecayValueFunction

    rng = np.random.default_rng(seed)
    return [
        Task(
            arrival=float(i),
            runtime=float(rng.exponential(100.0) + 1.0),
            vf=LinearDecayValueFunction(
                float(rng.exponential(100.0)), float(rng.exponential(0.35)), None
            ),
        )
        for i in range(n)
    ]


def bench_event_queue_push_pop(benchmark):
    def work():
        q = EventQueue()
        for i in range(10_000):
            q.push(Event(float(i % 97), lambda: None))
        while q:
            q.pop()

    benchmark(work)


def bench_simulator_event_cascade(benchmark):
    def work():
        sim = Simulator()

        def chain(n):
            if n:
                sim.schedule(1.0, chain, n - 1)

        sim.schedule(0.0, chain, 10_000)
        sim.run()
        return sim.events_fired

    assert benchmark(work) == 10_001


def bench_event_queue_head_slot_cascade(benchmark):
    """Schedule-then-pop-next over a heap of parked far-future events —
    the pattern the head-slot fast path exists for."""

    def work():
        q = EventQueue()
        for i in range(2_000):
            q.push(Event(1e9 + i, lambda: None))
        for i in range(10_000):
            q.push(Event(float(i), lambda: None))
            q.pop()
        q.clear()

    benchmark(work)


def bench_pool_incremental_churn(benchmark):
    """add/remove_at cycles against a large standing pool: exercises the
    amortized append + vectorized tail-shift delete, not a rebuild."""
    from repro.scheduling import PendingPool

    standing = _tasks(1_000)
    churners = _tasks(500, seed=1)

    def work():
        pool = PendingPool()
        for task in standing:
            pool.add(task)
        for task in churners:
            pool.add(task)
            pool.columns()
            pool.remove_at(len(pool) // 2)
            pool.columns()
        return len(pool)

    assert benchmark(work) == 1_000


def bench_firstprice_scores(benchmark):
    cols = _pool()
    heuristic = FirstPrice()
    scores = benchmark(_ticking_scores(heuristic, cols))
    assert scores.shape == (N_TASKS,)


def bench_firstreward_scores(benchmark):
    cols = _pool()
    heuristic = FirstReward(alpha=0.3, discount_rate=0.01)
    scores = benchmark(_ticking_scores(heuristic, cols))
    assert scores.shape == (N_TASKS,)


def bench_opportunity_cost_kernel(benchmark):
    rng = np.random.default_rng(1)
    remaining = rng.exponential(100.0, N_TASKS)
    decay = rng.exponential(0.35, N_TASKS)
    horizons = rng.exponential(300.0, N_TASKS)
    horizons[rng.random(N_TASKS) < 0.5] = np.inf
    cost = benchmark(opportunity_costs, remaining, decay, horizons)
    assert cost.shape == (N_TASKS,)


def bench_candidate_projection(benchmark):
    rng = np.random.default_rng(2)
    remaining = rng.exponential(100.0, 2000)
    free = rng.uniform(0.0, 100.0, 16)
    starts = benchmark(project_start_times, remaining, free)
    assert len(starts) == 2000


def bench_trace_generation(benchmark):
    spec = economy_spec(n_jobs=N_TASKS)
    trace = benchmark(generate_trace, spec, 0)
    assert len(trace) == N_TASKS


def bench_site_simulation_end_to_end(benchmark):
    spec = economy_spec(n_jobs=800, load_factor=1.0)
    trace = generate_trace(spec, seed=0)

    def work():
        return simulate_site(
            trace, FirstReward(0.3, 0.01), processors=16, keep_records=False
        ).total_yield

    benchmark(work)
