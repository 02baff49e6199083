"""``ProcessorPool``'s maintained views against the scans they replaced.

The pool answers ``free_count``, ``busy_count``, ``slots_of`` and "which
node is free" from structures it keeps current across every transition,
and ``running_rows`` from a maintained running block (per slot, the
occupant's clock-free scalars, written at the first pass after
``assign``).  The scans those replaced live on here as the oracle, over
the pool's own ``_task_of``/``_down`` state: after every operation of an
arbitrary stream — ``grow``, ``shrink_idle``, ``fail``/``repair`` and a
value function swapped between ``assign`` and the first pass included —
each view must equal its recomputation, the floats bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.scheduling.base import expiration_delays
from repro.site import ProcessorPool
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction


# ----------------------------------------------------------------------
# The oracle: every answer by a scan over the slots
# ----------------------------------------------------------------------
def scan_free(pool):
    return [
        i
        for i, (t, d) in enumerate(zip(pool._task_of, pool._down))
        if t is None and not d
    ]


def scan_slots_of(pool, task):
    return [i for i, t in enumerate(pool._task_of) if t is task]


def believed_remaining(task, now):
    return max(0.0, task.estimated_remaining - (now - task.last_start))


def scan_free_times(pool, now):
    return [
        math.inf
        if d
        else (now if t is None else now + believed_remaining(t, now))
        for t, d in zip(pool._task_of, pool._down)
    ]


def scan_running_rows(pool, now):
    tasks, rows = [], []
    for t in pool._task_of:
        if t is None:
            continue
        vf = t.linear_vf
        tasks.append(t)
        rows.append(
            (
                t.arrival,
                t.estimate,
                believed_remaining(t, now),
                vf.value,
                vf.decay,
                vf.bound_or_inf(),
            )
        )
    block = np.array(rows).reshape(-1, 6).T
    # the vector expression the pending pool's columns are held to
    return tasks, np.concatenate([block, [expiration_delays(*block[3:])]])


def assert_block_holds_the_occupants(pool):
    """Every busy slot's column of the maintained block is its occupant's:
    the clock-free scalars, the estimated remaining time and the last start."""
    for i, t in enumerate(pool._task_of):
        if t is None:
            continue
        assert pool._filled[i]  # running_rows has just run
        vf = t.linear_vf
        expected = [t.arrival, t.estimate, t.estimated_remaining, vf.value, vf.decay,
                    vf.bound_or_inf()]
        expected.append(float(expiration_delays(*np.array([expected[3:]]).T)[0]))
        expected.append(t.last_start)
        assert pool._block[:, i].tobytes() == np.array(expected).tobytes()


def assert_views_match_scans(pool, now, known_tasks):
    free = scan_free(pool)
    running = [t for t in pool._task_of if t is not None]
    assert pool.free_count == len(free)
    assert pool.busy_count == len(running)
    assert pool.count == len(pool._task_of) == len(pool._down) == len(pool._node_ids)
    assert pool.running_tasks == running
    for task in known_tasks:
        slots = scan_slots_of(pool, task)
        if slots:
            assert pool.slots_of(task) == slots
            assert pool.node_ids_of(task) == [pool._node_ids[i] for i in slots]
        else:
            with pytest.raises(SchedulingError, match="not running"):
                pool.slots_of(task)
    free_times = pool.free_times(now)
    assert free_times == scan_free_times(pool, now)
    assert np.array(free_times).tobytes() == np.array(scan_free_times(pool, now)).tobytes()
    tasks, block = pool.running_rows(now)
    expected_tasks, expected_block = scan_running_rows(pool, now)
    assert tasks == expected_tasks
    assert block.shape == expected_block.shape
    assert block.tobytes() == expected_block.tobytes()
    assert len(pool._filled) == pool._block.shape[1] == pool.count
    assert_block_holds_the_occupants(pool)


# ----------------------------------------------------------------------
# The op stream
# ----------------------------------------------------------------------
fraction = st.floats(min_value=0.0, max_value=0.999)
awkward = st.floats(min_value=0.1, max_value=40.0)  # few are round in binary

ops = st.lists(
    st.one_of(
        # a new task: (demand, runtime, estimate factor, value, decay,
        # bounded, the value function it holds by the first pass — None
        # keeps the one it was assigned with)
        st.tuples(
            st.just("assign_new"),
            st.integers(1, 3),
            awkward,
            st.floats(0.25, 4.0),
            awkward,
            st.floats(0.0, 3.0),
            st.booleans(),
            st.one_of(st.none(), st.tuples(awkward, st.floats(0.0, 3.0), st.booleans())),
        ),
        st.tuples(st.just("assign_queued"), fraction),  # a preempted/crashed one
        st.tuples(st.just("assign_running"), fraction),  # must be refused
        st.tuples(st.just("vacate"), fraction),
        # crash a node; the engine then vacates the victim's whole gang
        st.tuples(st.just("fail"), fraction, st.booleans()),
        st.tuples(st.just("repair"), fraction),
        st.tuples(st.just("grow"), st.integers(0, 3)),
        st.tuples(st.just("shrink"), st.integers(0, 4)),
        st.tuples(st.just("tick"), awkward),
    ),
    min_size=12,  # long enough for slots to change hands
    max_size=60,
)


def pick(items, x):
    return items[int(x * len(items))]


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 6), ops=ops)
def test_views_equal_scans_after_every_op(count, ops):
    pool = ProcessorPool(count)
    now = 0.0
    queued: list[Task] = []  # ran before, hold no node now
    known: list[Task] = []
    assert_views_match_scans(pool, now, known)

    def assign(task):
        free = scan_free(pool)
        if task.demand > len(free):
            with pytest.raises(SchedulingError, match="only"):
                pool.assign(task, now)
            return False
        task.start(now)
        first = pool.assign(task, now)
        # the lowest free up slots, in order
        assert first == free[0]
        assert scan_slots_of(pool, task) == free[: task.demand]
        return True

    for op, *args in ops:
        running = pool.running_tasks
        if op == "assign_new":
            demand, runtime, factor, value, decay, bounded, swap = args
            vf = LinearDecayValueFunction(value, decay, value / 2 if bounded else None)
            task = Task(now, runtime, vf, demand=demand, estimate=runtime * factor)
            task.submit()
            task.accept()
            if assign(task):
                known.append(task)
                if swap is not None:  # the pass below is the first since assign
                    value, decay, bounded = swap
                    task.vf = LinearDecayValueFunction(
                        value, decay, value / 2 if bounded else None
                    )
        elif op == "assign_queued":
            if queued:
                task = pick(queued, args[0])
                if assign(task):
                    queued.remove(task)
        elif op == "assign_running":
            if running:
                with pytest.raises(SchedulingError, match="already running"):
                    pool.assign(pick(running, args[0]), now)
        elif op == "vacate":
            if running:
                task = pick(running, args[0])
                first = scan_slots_of(pool, task)[0]
                assert pool.vacate(task, now) == first
                task.preempt(min(now, task.last_start + task.remaining))
                queued.append(task)
        elif op == "fail":
            node = pick(pool._node_ids, args[0])
            slot = pool._node_ids.index(node)
            was_down, occupant = pool._down[slot], pool._task_of[slot]
            victim = pool.fail(node)
            assert victim is (None if was_down else occupant)
            if victim is not None and args[1]:
                pool.vacate(victim, now)
                assert slot not in scan_free(pool)  # crashed: not for reuse
                victim.crash(now)
                queued.append(victim)
        elif op == "repair":
            node = pick(pool._node_ids, args[0])
            was_down = pool._down[pool._node_ids.index(node)]
            assert pool.repair(node) is was_down
        elif op == "grow":
            pool.grow(args[0])
        elif op == "shrink":
            idle_up = len(scan_free(pool))
            removed = pool.shrink_idle(args[0])
            assert removed == min(args[0], idle_up, pool.count + removed - 1)
        else:  # tick
            now += args[0]
        assert_views_match_scans(pool, now, known)


def started(at, runtime, demand=1):
    task = Task(at, runtime, LinearDecayValueFunction(100.0, 1.0), demand=demand)
    task.submit()
    task.accept()
    task.start(at)
    return task


def test_node_crashed_under_a_task_stays_out_until_repaired():
    pool = ProcessorPool(3)
    wide = started(0.0, 10.0, demand=2)
    pool.assign(wide, 0.0)  # slots 0 and 1
    assert pool.fail(1) is wide
    assert pool.free_count == 1 and pool.busy_count == 2  # not vacated yet
    pool.vacate(wide, 4.0)
    # the gang's healthy node is back; the crashed one is not
    assert pool.free_count == 2 and pool.busy_count == 0
    assert pool.assign(started(4.0, 1.0), 4.0) == 0
    assert pool.free_times(4.0) == [5.0, math.inf, 4.0]
    assert pool.repair(1)
    assert pool.free_count == 2
    assert pool.assign(started(4.0, 1.0), 4.0) == 1  # lowest free slot again


def test_shrink_below_a_busy_slot_moves_its_task_down():
    pool = ProcessorPool(3)
    blocker, task = started(0.0, 5.0), started(0.0, 5.0)
    pool.assign(blocker, 0.0)
    pool.assign(task, 0.0)
    pool.vacate(blocker, 1.0)  # slot 0 idle below the busy slot 1
    assert pool.shrink_idle(2) == 2
    assert pool.count == 1 and pool.free_count == 0
    assert pool.slots_of(task) == [0] and pool.node_ids_of(task) == [1]
    assert pool.vacate(task, 2.0) == 0
    assert pool.free_count == 1
