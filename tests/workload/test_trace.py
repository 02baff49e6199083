"""Unit tests for the Trace container."""

import math

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.tasks import TaskState
from repro.workload import Trace


def small_trace():
    return Trace(
        arrival=np.array([0.0, 1.0, 1.0, 5.0]),
        runtime=np.array([10.0, 2.0, 3.0, 4.0]),
        value=np.array([100.0, 20.0, 30.0, 40.0]),
        decay=np.array([1.0, 0.5, 0.0, 2.0]),
        bound=np.array([np.inf, 0.0, np.inf, 10.0]),
        name="small",
    )


class TestValidation:
    def test_columns_must_align(self):
        with pytest.raises(WorkloadError):
            Trace(np.zeros(3), np.ones(2), np.ones(3), np.zeros(3), np.full(3, np.inf))

    def test_arrivals_must_be_sorted(self):
        with pytest.raises(WorkloadError):
            Trace(
                np.array([1.0, 0.0]), np.ones(2), np.ones(2), np.zeros(2),
                np.full(2, np.inf),
            )

    def test_runtimes_positive(self):
        with pytest.raises(WorkloadError):
            Trace(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1), np.full(1, np.inf))

    def test_decay_nonnegative(self):
        with pytest.raises(WorkloadError):
            Trace(np.zeros(1), np.ones(1), np.ones(1), np.array([-1.0]), np.full(1, np.inf))

    def test_bound_floor_cannot_exceed_value(self):
        with pytest.raises(WorkloadError):
            Trace(np.zeros(1), np.ones(1), np.array([5.0]), np.ones(1), np.array([-10.0]))

    def test_columns_readonly(self):
        trace = small_trace()
        with pytest.raises(ValueError):
            trace.arrival[0] = 99.0


class TestAccess:
    def test_len_and_row_access(self):
        trace = small_trace()
        assert len(trace) == 4
        # estimate defaults to the true runtime
        assert trace[1] == (1.0, 2.0, 20.0, 0.5, 0.0, 2.0)

    def test_slicing_returns_trace(self):
        sub = small_trace()[1:3]
        assert isinstance(sub, Trace)
        assert len(sub) == 2
        assert sub.arrival[0] == 1.0

    def test_iter_rows(self):
        rows = list(small_trace().iter_rows())
        assert len(rows) == 4
        assert rows[0][2] == 100.0

    def test_empty(self):
        empty = Trace.empty()
        assert len(empty) == 0
        assert empty.span == 0.0


class TestStatistics:
    def test_total_work_and_span(self):
        trace = small_trace()
        assert trace.total_work == 19.0
        assert trace.span == 5.0

    def test_summary_keys(self):
        s = small_trace().summary()
        assert s["n"] == 4
        assert s["total_work"] == 19.0
        assert 0 < s["bounded_fraction"] < 1

    def test_value_skew_realized_flat_is_one(self):
        trace = Trace(
            np.arange(4.0), np.ones(4), np.ones(4), np.zeros(4), np.full(4, np.inf)
        )
        assert trace.value_skew_realized() == 1.0


class TestTasks:
    def test_to_tasks_materializes_value_functions(self):
        tasks = small_trace().to_tasks()
        assert len(tasks) == 4
        assert tasks[0].value == 100.0
        assert tasks[0].bound == math.inf
        assert tasks[1].linear_vf.penalty_bound == 0.0
        assert all(t.state is TaskState.CREATED for t in tasks)

