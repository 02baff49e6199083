"""Unit tests for the Task model and its state machine."""

import math

import pytest

from repro.errors import SchedulingError
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction, PiecewiseLinearValueFunction


def make_task(arrival=0.0, runtime=10.0, value=100.0, decay=2.0, bound=None):
    return Task(arrival, runtime, LinearDecayValueFunction(value, decay, bound))


class TestConstruction:
    def test_fields(self):
        t = make_task(arrival=5.0, runtime=10.0)
        assert t.arrival == 5.0
        assert t.runtime == 10.0
        assert t.remaining == 10.0
        assert t.state is TaskState.CREATED
        assert t.demand == 1

    def test_auto_ids_unique(self):
        assert make_task().tid != make_task().tid

    def test_explicit_tid(self):
        assert make_task().tid != Task(0, 1, LinearDecayValueFunction(1, 0), tid=77).tid
        assert Task(0, 1, LinearDecayValueFunction(1, 0), tid=77).tid == 77

    def test_invalid_arrival_rejected(self):
        with pytest.raises(SchedulingError):
            make_task(arrival=-1.0)

    def test_invalid_runtime_rejected(self):
        with pytest.raises(SchedulingError):
            make_task(runtime=0.0)
        with pytest.raises(SchedulingError):
            make_task(runtime=math.inf)

    def test_invalid_demand_rejected(self):
        with pytest.raises(SchedulingError):
            Task(0, 1, LinearDecayValueFunction(1, 0), demand=0)

    def test_linear_accessors(self):
        t = make_task(value=100.0, decay=2.0, bound=20.0)
        assert t.value == 100.0
        assert t.decay == 2.0
        assert t.bound == 20.0

    def test_bound_inf_when_unbounded(self):
        assert make_task().bound == math.inf

    def test_linear_vf_required_for_accessors(self):
        t = Task(0, 1, PiecewiseLinearValueFunction([(0, 10)]))
        with pytest.raises(SchedulingError):
            _ = t.value


class TestYieldArithmetic:
    def test_no_delay_when_run_immediately(self):
        t = make_task(arrival=5.0, runtime=10.0)
        assert t.delay_if_completed_at(15.0) == 0.0
        assert t.yield_if_completed_at(15.0) == 100.0

    def test_delay_counts_time_beyond_best_case(self):
        t = make_task(arrival=5.0, runtime=10.0, decay=2.0)
        assert t.delay_if_completed_at(20.0) == 5.0
        assert t.yield_if_completed_at(20.0) == 90.0

    def test_delay_clamped_at_zero(self):
        t = make_task(arrival=5.0, runtime=10.0)
        assert t.delay_if_completed_at(10.0) == 0.0  # impossible early finish

    def test_delay_if_started_uses_remaining_time(self):
        t = make_task(arrival=0.0, runtime=10.0, decay=1.0)
        # Eq. 2: start + RPT - (arrival + runtime)
        assert t.delay_if_completed_at(4.0 + t.estimated_remaining) == 4.0
        assert t.yield_if_completed_at(4.0 + t.estimated_remaining) == 96.0

    def test_delay_after_partial_execution(self):
        t = make_task(arrival=0.0, runtime=10.0, decay=1.0)
        t.submit(); t.accept(); t.start(0.0)
        t.preempt(6.0)  # 6 units done, 4 remain
        assert t.remaining == pytest.approx(4.0)
        # restarting at t=20 completes at 24 => delay 14
        assert t.delay_if_completed_at(20.0 + t.estimated_remaining) == pytest.approx(14.0)


class TestStateMachine:
    def test_happy_path(self):
        t = make_task(runtime=10.0, decay=2.0)
        t.submit(); t.accept(); t.start(0.0)
        y = t.complete(10.0)
        assert t.state is TaskState.COMPLETED
        assert y == 100.0
        assert t.realized_yield == 100.0
        assert t.completion == 10.0
        assert t.finished

    def test_rejection_path(self):
        t = make_task()
        t.submit()
        t.reject(3.0)
        assert t.state is TaskState.REJECTED
        assert t.rejected_at == 3.0
        assert t.finished

    def test_cannot_start_without_accept(self):
        t = make_task()
        t.submit()
        with pytest.raises(SchedulingError):
            t.start(0.0)

    def test_cannot_complete_without_start(self):
        t = make_task()
        t.submit(); t.accept()
        with pytest.raises(SchedulingError):
            t.complete(10.0)

    def test_cannot_submit_twice(self):
        t = make_task()
        t.submit()
        with pytest.raises(SchedulingError):
            t.submit()

    def test_terminal_states_frozen(self):
        t = make_task()
        t.submit(); t.accept(); t.start(0.0); t.complete(10.0)
        with pytest.raises(SchedulingError):
            t.start(11.0)

    def test_preempt_tracks_remaining_and_count(self):
        t = make_task(runtime=10.0)
        t.submit(); t.accept(); t.start(0.0)
        t.preempt(3.0)
        assert t.state is TaskState.QUEUED
        assert t.remaining == pytest.approx(7.0)
        assert t.preemptions == 1
        t.start(5.0)
        assert t.first_start == 0.0 and t.last_start == 5.0
        t.preempt(6.0)
        assert t.remaining == pytest.approx(6.0)
        assert t.preemptions == 2

    def test_preempt_before_start_rejected(self):
        t = make_task()
        t.submit(); t.accept()
        with pytest.raises(SchedulingError):
            t.preempt(1.0)

    def test_preempted_completion_yield_counts_total_delay(self):
        t = make_task(runtime=10.0, decay=2.0)
        t.submit(); t.accept(); t.start(0.0)
        t.preempt(5.0)
        t.start(8.0)
        y = t.complete(13.0)  # completion 13, best case 10 => delay 3
        assert y == pytest.approx(100.0 - 2.0 * 3.0)

    def test_cancel_bounded_pays_floor(self):
        t = make_task(value=100.0, decay=2.0, bound=20.0)
        t.submit(); t.accept()
        y = t.cancel(7.0)
        assert y == -20.0
        assert t.state is TaskState.CANCELLED
        assert t.realized_yield == -20.0

    def test_cancel_unbounded_refused(self):
        t = make_task()
        t.submit(); t.accept()
        with pytest.raises(SchedulingError):
            t.cancel(1.0)

    def test_cancel_running_task_allowed(self):
        t = make_task(bound=0.0)
        t.submit(); t.accept(); t.start(0.0)
        assert t.cancel(3.0) == 0.0
