"""Tests for the generic (any-value-function) scheduling path."""

import pytest

from repro.errors import SchedulingError
from repro.scheduling import FirstPrice, FirstReward, PresentValue
from repro.scheduling.generic import (
    GenericFirstPrice,
    GenericFirstReward,
    GenericPresentValue,
    GenericTaskService,
    simulate_generic,
    task_delay_now,
    task_yield_now,
)
from repro.site import simulate_site
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction, PiecewiseLinearValueFunction
from repro.workload import economy_spec, generate_trace


def linear_task(arrival, runtime, value=100.0, decay=1.0, bound=None):
    return Task(arrival, runtime, LinearDecayValueFunction(value, decay, bound))


def grace_task(arrival, runtime, value=100.0, grace=10.0, to_zero=30.0):
    vf = PiecewiseLinearValueFunction([(0, value), (grace, value), (to_zero, 0)])
    return Task(arrival, runtime, vf)


class TestScoring:
    def test_delay_and_yield_now(self):
        t = linear_task(0.0, 10.0, value=100.0, decay=2.0)
        assert task_delay_now(t, 5.0) == 5.0
        assert task_yield_now(t, 5.0) == 90.0

    def test_firstprice_matches_vectorized_on_linear(self):
        tasks = [
            linear_task(0.0, 10.0, 100.0, 1.0),
            linear_task(2.0, 5.0, 30.0, 4.0),
            linear_task(3.0, 8.0, 80.0, 0.5, bound=0.0),
        ]
        import numpy as np

        from repro.scheduling.base import PoolColumns

        cols = PoolColumns(
            np.array([t.arrival for t in tasks]),
            np.array([t.runtime for t in tasks]),
            np.array([t.remaining for t in tasks]),
            np.array([t.value for t in tasks]),
            np.array([t.decay for t in tasks]),
            np.array([t.bound for t in tasks]),
        )
        now = 12.0
        vec = FirstPrice().scores(cols, now)
        gen = [GenericFirstPrice().score(t, tasks, now) for t in tasks]
        assert np.allclose(vec, gen)

    def test_pv_matches_vectorized_on_linear(self):
        import numpy as np

        from repro.scheduling.base import PoolColumns

        tasks = [linear_task(0.0, 10.0, 100.0, 1.0), linear_task(0.0, 3.0, 60.0, 2.0)]
        cols = PoolColumns(
            np.array([t.arrival for t in tasks]),
            np.array([t.runtime for t in tasks]),
            np.array([t.remaining for t in tasks]),
            np.array([t.value for t in tasks]),
            np.array([t.decay for t in tasks]),
            np.array([t.bound for t in tasks]),
        )
        now = 4.0
        vec = PresentValue(0.02).scores(cols, now)
        gen = [GenericPresentValue(0.02).score(t, tasks, now) for t in tasks]
        assert np.allclose(vec, gen)

    def test_firstreward_matches_vectorized_on_linear(self):
        import numpy as np

        from repro.scheduling.base import PoolColumns

        tasks = [
            linear_task(0.0, 10.0, 100.0, 1.0),
            linear_task(0.0, 5.0, 30.0, 4.0, bound=0.0),
            linear_task(0.0, 8.0, 80.0, 0.5),
        ]
        cols = PoolColumns(
            np.array([t.arrival for t in tasks]),
            np.array([t.runtime for t in tasks]),
            np.array([t.remaining for t in tasks]),
            np.array([t.value for t in tasks]),
            np.array([t.decay for t in tasks]),
            np.array([t.bound for t in tasks]),
        )
        now = 3.0
        vec = FirstReward(0.3, 0.01).scores(cols, now)
        gen = [GenericFirstReward(0.3, 0.01).score(t, tasks, now) for t in tasks]
        assert np.allclose(vec, gen)

    def test_grace_period_task_holds_priority(self):
        # inside its grace period a task loses nothing by waiting — its
        # decay_at is 0, so it contributes no opportunity cost
        graceful = grace_task(0.0, 5.0, grace=50.0, to_zero=80.0)
        urgent = linear_task(0.0, 5.0, value=50.0, decay=5.0)
        h = GenericFirstReward(alpha=0.0, discount_rate=0.0)
        tasks = [graceful, urgent]
        assert h.best_index(tasks, now=1.0) == 1  # run the decaying one first

    def test_parameter_validation(self):
        with pytest.raises(SchedulingError):
            GenericPresentValue(-0.1)
        with pytest.raises(SchedulingError):
            GenericFirstReward(alpha=2.0)
        with pytest.raises(SchedulingError):
            GenericFirstReward(alpha=0.3, discount_rate=-1.0)

    def test_best_index_empty(self):
        with pytest.raises(SchedulingError):
            GenericFirstPrice().best_index([], 0.0)


class TestGenericService:
    def test_mixed_value_models_run_to_completion(self):
        tasks = [
            grace_task(0.0, 10.0),
            linear_task(0.0, 5.0, value=60.0, decay=2.0),
            grace_task(1.0, 3.0, value=40.0, grace=2.0, to_zero=8.0),
        ]
        ledger = simulate_generic(tasks, GenericFirstPrice(), processors=1)
        assert ledger.completed == 3
        assert all(t.state is TaskState.COMPLETED for t in tasks)

    def test_agrees_with_vectorized_engine_on_linear_trace(self):
        trace = generate_trace(economy_spec(n_jobs=60, load_factor=1.5, processors=2), seed=9)
        vec = simulate_site(trace, FirstPrice(), processors=2).total_yield
        gen = simulate_generic(trace.to_tasks(), GenericFirstPrice(), processors=2)
        assert gen.total_yield == pytest.approx(vec)

    def test_grace_yields_computed_from_piecewise(self):
        blocker = linear_task(0.0, 20.0, value=1000.0, decay=0.1)
        graceful = grace_task(0.0, 5.0, value=100.0, grace=25.0, to_zero=50.0)
        ledger = simulate_generic([blocker, graceful], GenericFirstPrice(), processors=1)
        # graceful starts at 20, completes 25, delay 20 (within grace) => full value
        assert graceful.realized_yield == pytest.approx(100.0)
        assert ledger.total_yield == pytest.approx(1000.0 + 100.0)

    def test_submit_before_arrival_rejected(self):
        from repro.sim import Simulator

        sim = Simulator()
        service = GenericTaskService(sim, 1, GenericFirstPrice())
        with pytest.raises(SchedulingError):
            service.submit(linear_task(5.0, 1.0))

    def test_gang_task_refused_at_submit(self):
        """The generic service is single-node: a ``demand > 1`` task used
        to be accepted, popped from ``pending`` and marked started, then
        lost to ``SchedulingError: task 1 needs 2 nodes, only 1 free`` out
        of ``sim.run()``.  It is refused at the door instead, untouched."""
        from repro.sim import Simulator

        vf = LinearDecayValueFunction(100.0, 1.0)
        gang = Task(1.0, 5.0, vf, demand=2)
        with pytest.raises(SchedulingError, match="single-node"):
            simulate_generic(
                [Task(0.0, 10.0, vf), gang, Task(2.0, 5.0, vf)],
                GenericFirstPrice(),
                processors=2,
            )
        assert gang.state is TaskState.CREATED

        service = GenericTaskService(Simulator(), 2, GenericFirstPrice())
        with pytest.raises(SchedulingError, match="single-node"):
            service.submit(Task(0.0, 5.0, vf, demand=2))
        assert not service.pending and service.ledger.submitted == 0
