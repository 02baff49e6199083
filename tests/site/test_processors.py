"""Unit tests for the processor pool."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.site import ProcessorPool
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction


def make_task(runtime=10.0):
    return Task(0.0, runtime, LinearDecayValueFunction(100.0, 1.0))


def started_task(runtime=10.0, at=0.0):
    t = make_task(runtime)
    t.submit(); t.accept(); t.start(at)
    return t


class TestAssignment:
    def test_count_validation(self):
        with pytest.raises(SchedulingError):
            ProcessorPool(0)

    def test_assign_and_free_counts(self):
        pool = ProcessorPool(2)
        assert pool.free_count == 2
        t = make_task()
        pool.assign(t, now=0.0)
        assert pool.free_count == 1
        assert pool.busy_count == 1
        assert pool.running_tasks == [t]

    def test_assign_when_full_raises(self):
        pool = ProcessorPool(1)
        pool.assign(make_task(), 0.0)
        with pytest.raises(SchedulingError):
            pool.assign(make_task(), 0.0)

    def test_assigning_a_running_task_again_raises_and_changes_nothing(self):
        # it used to take a second node: busy_count 2, and after one
        # vacate half the pool still counted as busy for good
        pool = ProcessorPool(4)
        t = make_task()
        pool.assign(t, 0.0)
        with pytest.raises(
            SchedulingError, match=rf"task {t.tid} is already running on node\(s\) \[0\]"
        ):
            pool.assign(t, 0.0)
        assert pool.busy_count == 1 and pool.free_count == 3
        assert pool.slots_of(t) == [0]
        pool.vacate(t, 5.0)
        assert pool.busy_count == 0 and pool.free_count == 4
        assert pool.utilization(5.0) == 0.25  # 5 node-time units of 20

    def test_vacate_frees_slot(self):
        pool = ProcessorPool(1)
        t = make_task()
        slot = pool.assign(t, 0.0)
        assert pool.vacate(t, 10.0) == slot
        assert pool.free_count == 1

    def test_vacate_unknown_task_raises(self):
        pool = ProcessorPool(1)
        with pytest.raises(SchedulingError):
            pool.vacate(make_task(), 0.0)


class TestFreeTimes:
    def test_idle_nodes_free_now(self):
        pool = ProcessorPool(3)
        assert np.allclose(pool.free_times(5.0), [5.0, 5.0, 5.0])

    def test_busy_nodes_free_at_estimated_completion(self):
        pool = ProcessorPool(2)
        t = started_task(runtime=12.0, at=0.0)
        pool.assign(t, 0.0)
        times = sorted(pool.free_times(5.0))
        assert times == [5.0, 12.0]

    def test_free_times_clamped_at_now_when_estimate_exhausted(self):
        pool = ProcessorPool(1)
        t = started_task(runtime=3.0, at=0.0)
        pool.assign(t, 0.0)
        # believed remaining is max(0, 3 - 8) = 0: free "now"
        assert pool.free_times(8.0)[0] == 8.0

    def test_free_times_follow_declared_estimate_not_truth(self):
        # misestimation: a task declared as 20 but truly 3 keeps the node
        # "believed busy" until 20 even though it will finish at 3
        pool = ProcessorPool(1)
        t = Task(0.0, 3.0, LinearDecayValueFunction(100.0, 1.0), estimate=20.0)
        t.submit(); t.accept(); t.start(0.0)
        pool.assign(t, 0.0)
        assert pool.free_times(1.0)[0] == pytest.approx(20.0)

    def test_running_rows(self):
        pool = ProcessorPool(3)
        a = started_task(runtime=10.0, at=0.0)
        b = Task(1.0, 4.0, LinearDecayValueFunction(50.0, 2.0, penalty_bound=5.0), estimate=6.0)
        b.submit(); b.accept(); b.start(1.0)
        pool.assign(a, 0.0)
        pool.assign(b, 1.0)
        tasks, rows = pool.running_rows(3.0)
        assert tasks == [a, b]  # slot order; the idle node has no row
        # PoolColumns field order; the RPT is the believed one (estimate 6,
        # ran 2); expiration (50 + 5) / 2 last
        assert rows.shape == (7, 2)
        assert rows[:, 0].tolist() == [0.0, 10.0, 7.0, 100.0, 1.0, np.inf, np.inf]
        assert rows[:, 1].tolist() == [1.0, 6.0, 4.0, 50.0, 2.0, 5.0, 27.5]

    def test_running_rows_of_an_idle_pool(self):
        tasks, rows = ProcessorPool(2).running_rows(3.0)
        assert tasks == [] and rows.shape == (7, 0)

    def test_running_rows_keep_the_linear_value_function_check(self):
        from repro.valuefn import PiecewiseLinearValueFunction

        pool = ProcessorPool(1)
        t = Task(0.0, 5.0, PiecewiseLinearValueFunction([(0, 10), (3, 0)]))
        t.submit(); t.accept(); t.start(0.0)
        pool.assign(t, 0.0)
        with pytest.raises(SchedulingError, match="LinearDecayValueFunction"):
            pool.running_rows(1.0)


class TestElasticCapacity:
    def test_grow_adds_idle_nodes(self):
        pool = ProcessorPool(2)
        pool.grow(3)
        assert pool.count == 5
        assert pool.free_count == 5

    def test_shrink_removes_only_idle(self):
        pool = ProcessorPool(3)
        t = started_task()
        pool.assign(t, 0.0)
        removed = pool.shrink_idle(3)
        assert removed == 2  # busy node survives
        assert pool.count == 1
        assert pool.running_tasks == [t]

    def test_shrink_never_below_one(self):
        pool = ProcessorPool(3)
        assert pool.shrink_idle(10) == 2
        assert pool.count == 1

    def test_negative_counts_rejected(self):
        pool = ProcessorPool(1)
        with pytest.raises(SchedulingError):
            pool.grow(-1)
        with pytest.raises(SchedulingError):
            pool.shrink_idle(-1)

    def test_node_ids_stable_across_shrink(self):
        # tasks on nodes keep their identity even when earlier slots vanish
        pool = ProcessorPool(1)
        pool.grow(3)  # ids 0..3
        a = started_task()
        pool.assign(a, 0.0)  # lands on slot 0 => id 0
        b = started_task()
        pool.assign(b, 0.0)  # id 1
        id_b = pool.node_ids_of(b)[0]
        pool.shrink_idle(2)  # drops idle ids 2,3
        assert pool.node_ids_of(b)[0] == id_b
        assert pool.node_ids_of(a)[0] == 0
        pool.grow(1)  # new node gets a FRESH id, not a recycled one
        c = started_task()
        pool.assign(c, 0.0)
        assert pool.node_ids_of(c)[0] == 4

    def test_grow_then_assign_uses_new_capacity(self):
        pool = ProcessorPool(1)
        a = started_task()
        pool.assign(a, 0.0)
        with pytest.raises(SchedulingError):
            pool.assign(started_task(), 0.0)
        pool.grow(1)
        b = started_task()
        pool.assign(b, 0.0)
        assert pool.busy_count == 2


class TestUtilization:
    def test_fully_busy(self):
        pool = ProcessorPool(1)
        t = make_task()
        pool.assign(t, 0.0)
        assert pool.utilization(10.0) == pytest.approx(1.0)

    def test_half_busy_after_vacate(self):
        pool = ProcessorPool(1)
        t = make_task()
        pool.assign(t, 0.0)
        pool.vacate(t, 5.0)
        assert pool.utilization(10.0) == pytest.approx(0.5)

    def test_idle_is_zero(self):
        assert ProcessorPool(4).utilization(10.0) == 0.0

    def test_zero_horizon(self):
        assert ProcessorPool(1).utilization(0.0) == 0.0

    def test_busy_time_is_counted_from_time_zero(self):
        # regression: utilization() took a ``since`` window start, but the
        # busy accumulator covers the whole run, so a task vacated before
        # the window (here [5, 10]) was still counted against the shorter
        # horizon: (4 + 0) / 5 = 0.8 where the window saw no work at all.
        # The parameter is gone; the one horizon is [0, now].
        pool = ProcessorPool(1)
        t = make_task()
        pool.assign(t, 0.0)
        pool.vacate(t, 4.0)
        assert pool.utilization(10.0) == pytest.approx(0.4)
        with pytest.raises(TypeError):
            pool.utilization(10.0, 5.0)
