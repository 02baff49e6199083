"""``ProcessorPool``'s maintained views against the scans they replaced.

The pool answers ``free_count``, ``busy_count``, ``slots_of``, "which
node is free" and the running tasks in slot order from structures it
keeps current across every transition, and ``union`` from a maintained
running block (per slot, the occupant's clock-free scalars, written at
the first union after ``assign``) with a kept count of its rows that can
expire.  The scans those replaced live on here as the oracle, over the
pool's own ``_task_of``/``_down`` state: after every operation of an
arbitrary stream — ``grow``, ``shrink_idle``, ``fail``/``repair``, a
value function swapped between ``assign`` and the first pass, and
passes at random points, so that a slot can change hands several times
between two of them — each view must equal its recomputation, the
floats bit for bit.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.scheduling import PendingPool
from repro.scheduling.base import expiration_delays
from repro.site import ProcessorPool
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction

from tests.oracles import running_tasks


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
    """The running tasks in slot order and their ``(7, k)`` rows, the RPT
    believed at *now*, ``expiration`` by the vector expression the
    pending pool's columns are held to."""
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
    return tasks, np.concatenate([block, [expiration_delays(*block[3:])]])


class HandedOver(PendingPool):
    """A pending pool that keeps what ``union`` hands its spare columns."""

    def probe_running(self, rows, starts, expiring, now):
        self.handed = (rows.copy(), starts.copy(), expiring)
        return super().probe_running(rows, starts, expiring, now)


def assert_union_is_the_scan(pool, now):
    """``union`` hands the pool the scan's rows, their starts and the
    census of the rows that can expire, and the view shows them after the
    pool's own rows with the RPT believed at *now*, by the bytes."""
    tasks, expected = scan_running_rows(pool, now)
    pending = HandedOver()
    view = pool.union(pending, now)
    rows, starts, expiring = pending.handed
    assert pool.running == tasks
    assert rows.shape == expected.shape
    estimated = np.array([t.estimated_remaining for t in tasks])
    assert rows[2].tobytes() == estimated.tobytes()
    assert np.delete(rows, 2, axis=0).tobytes() == np.delete(expected, 2, axis=0).tobytes()
    assert starts.tobytes() == np.array([t.last_start for t in tasks]).tobytes()
    assert expiring == view.expiring == int(np.count_nonzero(expected[6] != math.inf))
    columns = np.array([view.arrival, view.runtime, view.remaining, view.value,
                        view.decay, view.bound, view.expiration])
    assert columns.tobytes() == expected.tobytes()
    assert_block_holds_the_occupants(pool)
    assert not pool._unfilled


def assert_block_holds_the_occupants(pool):
    """Before the first ``running`` nothing of the preemption pass's state
    is kept or written.  From then on the kept occupants and slots are the
    busy ones in slot order, every written column of the maintained block
    is its occupant's (the clock-free scalars, the estimated remaining
    time and the last start), the busy slots not written are the ones
    listed, once each, and the kept count of expiring rows is the written
    columns' census."""
    if pool._running is None:
        assert not any(pool._filled) and not pool._unfilled and pool._expiring == 0
        return
    written = []
    for i, t in enumerate(pool._task_of):
        if t is None or not pool._filled[i]:
            continue
        written.append(i)
        vf = t.linear_vf
        expected = [t.arrival, t.estimate, t.estimated_remaining, vf.value, vf.decay,
                    vf.bound_or_inf()]
        expected.append(float(expiration_delays(*np.array([expected[3:]]).T)[0]))
        expected.append(t.last_start)
        assert pool._block[:, i].tobytes() == np.array(expected).tobytes()
    busy = [i for i, t in enumerate(pool._task_of) if t is not None]
    assert not any(pool._filled[i] for i, t in enumerate(pool._task_of) if t is None)
    assert sorted(pool._unfilled) == [i for i in busy if not pool._filled[i]]
    assert pool._running_slots == busy
    assert pool._running == [pool._task_of[i] for i in busy]
    assert pool._expiring == int(np.count_nonzero(pool._block[6, written] != math.inf))


def assert_views_match_scans(pool, now, known_tasks):
    free = scan_free(pool)
    running = running_tasks(pool)
    assert pool.free_count == len(free)
    assert pool.busy_count == len(running)
    assert pool.count == len(pool._task_of) == len(pool._down) == len(pool._node_ids)
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
    assert len(pool._filled) == pool._block.shape[1] == pool.count
    assert_block_holds_the_occupants(pool)
    # the union a pass would take now, on a copy: the pool's own state is
    # kept from its first pass op on, and its slots stay unwritten until
    # the next one
    assert_union_is_the_scan(copy.deepcopy(pool), now)


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
        st.tuples(st.just("pass")),  # the preemption pass's union
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
        running = running_tasks(pool)
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
        elif op == "pass":
            assert_union_is_the_scan(pool, now)
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


def test_a_slot_reassigned_twice_between_passes():
    # slot 0 changes hands twice before the second pass, and each of its
    # occupants differs from the last in whether its row can expire
    pool = ProcessorPool(2)
    first, other = started(0.0, 9.0), started(0.0, 9.0)
    pool.assign(first, 0.0)
    pool.assign(other, 0.0)
    assert_block_holds_the_occupants(pool)  # nothing kept yet
    assert_union_is_the_scan(pool, 1.0)
    assert pool._expiring == 0
    for at, bound in ((2.0, 5.0), (3.0, None), (4.0, 0.0)):
        pool.vacate(pool.running[0], at)
        task = Task(at, 4.0, LinearDecayValueFunction(100.0, 1.0, bound))
        task.submit()
        task.accept()
        task.start(at)
        assert pool.assign(task, at) == 0
        assert_block_holds_the_occupants(pool)
    assert pool.running == [task, other]
    assert_union_is_the_scan(pool, 5.0)
    assert pool._expiring == 1
