"""Unit tests for PoolColumns helpers and the pending pool."""

import math

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.scheduling import (
    PendingPool,
    PoolColumns,
    current_delays,
    current_yields,
    decay_horizons,
    effective_decay,
)
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction


def cols_of(rows):
    """rows: (arrival, runtime, remaining, value, decay, bound)"""
    arrays = [np.array(c, dtype=float) for c in zip(*rows)]
    return PoolColumns(*arrays)


def make_task(arrival=0.0, runtime=10.0, value=100.0, decay=2.0, bound=None):
    return Task(arrival, runtime, LinearDecayValueFunction(value, decay, bound))


class TestYieldArithmetic:
    def test_current_delays_eq2(self):
        cols = cols_of([
            (0.0, 10.0, 10.0, 100.0, 1.0, np.inf),   # fresh task
            (0.0, 10.0, 4.0, 100.0, 1.0, np.inf),    # preempted, 6 done
        ])
        # at now=20: fresh -> 20+10-0-10=20; preempted -> 20+4-0-10=14
        assert np.allclose(current_delays(cols, 20.0), [20.0, 14.0])

    def test_delay_clamped_at_zero(self):
        cols = cols_of([(5.0, 10.0, 10.0, 100.0, 1.0, np.inf)])
        assert current_delays(cols, 0.0)[0] == 0.0

    def test_current_yields_with_floor(self):
        cols = cols_of([
            (0.0, 10.0, 10.0, 100.0, 2.0, np.inf),
            (0.0, 10.0, 10.0, 100.0, 2.0, 0.0),
        ])
        ys = current_yields(cols, 100.0)  # delay 100 -> raw -100
        assert ys[0] == pytest.approx(-100.0)
        assert ys[1] == 0.0

    def test_horizons_unbounded_is_inf(self):
        cols = cols_of([(0.0, 10.0, 10.0, 100.0, 2.0, np.inf)])
        assert np.isinf(decay_horizons(cols, 0.0))[0]

    def test_horizons_bounded_shrink_with_time(self):
        cols = cols_of([(0.0, 10.0, 10.0, 100.0, 2.0, 0.0)])
        # expiration at delay 50
        assert decay_horizons(cols, 0.0)[0] == pytest.approx(50.0)
        assert decay_horizons(cols, 30.0)[0] == pytest.approx(20.0)
        assert decay_horizons(cols, 80.0)[0] == 0.0

    def test_horizons_zero_decay_is_zero(self):
        cols = cols_of([(0.0, 10.0, 10.0, 100.0, 0.0, np.inf)])
        assert decay_horizons(cols, 0.0)[0] == 0.0

    def test_effective_decay_zeroes_expired(self):
        cols = cols_of([
            (0.0, 10.0, 10.0, 100.0, 2.0, 0.0),
            (0.0, 10.0, 10.0, 100.0, 2.0, np.inf),
        ])
        d = effective_decay(cols, 200.0)  # first is long expired
        assert d[0] == 0.0
        assert d[1] == 2.0

    def test_one_pass_per_instant(self):
        cols = cols_of([(0.0, 10.0, 10.0, 100.0, 2.0, 0.0)])
        first = decay_horizons(cols, 30.0)
        assert decay_horizons(cols, 30.0) is first  # same instant: shared
        assert not first.flags.writeable  # shared, so nobody may write it
        moved = decay_horizons(cols, 80.0)  # the clock moved: recomputed
        assert moved is not first and moved[0] == 0.0
        assert decay_horizons(cols, 30.0)[0] == pytest.approx(20.0)

    def test_empty(self):
        assert len(PoolColumns.empty()) == 0


class TestPendingPool:
    def test_add_and_columns(self):
        pool = PendingPool()
        pool.add(make_task(arrival=1.0, value=50.0))
        pool.add(make_task(arrival=2.0, value=60.0))
        cols = pool.columns()
        assert len(cols) == 2
        assert np.allclose(cols.arrival, [1.0, 2.0])
        assert np.allclose(cols.value, [50.0, 60.0])

    def test_columns_cached_until_mutation(self):
        pool = PendingPool()
        pool.add(make_task())
        first = pool.columns()
        assert pool.columns() is first
        pool.add(make_task())
        assert pool.columns() is not first

    def test_probe_adds_one_row(self):
        pool = PendingPool()
        pool.add(make_task(value=100.0, decay=1.0))
        before = pool.columns()
        grown = pool.probe(make_task(arrival=5.0, runtime=2.0, value=50.0, decay=3.0, bound=0.0))
        assert len(grown) == 2
        assert grown.value[1] == 50.0
        assert grown.bound[1] == 0.0
        assert not grown.value.flags.writeable
        # nothing committed: the pool and its view are untouched
        assert len(pool) == 1
        assert pool.columns() is before and len(before) == 1

    def test_probe_of_empty_pool_is_the_candidate_alone(self):
        grown = PendingPool().probe(make_task(arrival=3.0, runtime=7.0))
        assert len(grown) == 1
        assert (grown.arrival[0], grown.runtime[0], grown.remaining[0]) == (3.0, 7.0, 7.0)

    def test_remove_at_returns_task(self):
        pool = PendingPool()
        a, b = make_task(value=1.0), make_task(value=2.0)
        pool.add(a)
        pool.add(b)
        removed = pool.remove_at(0)
        assert removed is a
        assert len(pool) == 1
        assert pool.columns().value[0] == 2.0

    def test_remove_at_out_of_range(self):
        with pytest.raises(SchedulingError):
            PendingPool().remove_at(0)

    def test_remove_by_identity(self):
        pool = PendingPool()
        t = make_task()
        pool.add(t)
        pool.remove(t)
        assert len(pool) == 0
        with pytest.raises(SchedulingError):
            pool.remove(t)

    def test_contains_iter_bool(self):
        pool = PendingPool()
        t = make_task()
        assert not pool
        pool.add(t)
        assert pool and t in pool
        assert list(pool) == [t]
        assert pool.task_at(0) is t

    def test_columns_capture_remaining_after_preemption(self):
        pool = PendingPool()
        t = make_task(runtime=10.0)
        t.submit(); t.accept(); t.start(0.0); t.preempt(4.0)
        pool.add(t)
        assert pool.columns().remaining[0] == pytest.approx(6.0)
