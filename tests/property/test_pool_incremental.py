"""Property tests: incremental pool columns vs a from-scratch rebuild.

The pool maintains its SoA columns incrementally (amortized-O(1) append,
vectorized tail-shift delete).  These tests drive arbitrary mutation
sequences and assert the columns always equal what a naive rebuild from
the surviving tasks' attributes would produce — the invariant every
heuristic's scoring depends on.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domain import MAX_MAGNITUDE
from repro.errors import ValueFunctionError
from repro.scheduling import PendingPool, PoolColumns, decay_horizons
from repro.site import ProcessorPool
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction


def fresh_task(i: int, demand: int = 1) -> Task:
    return Task(
        arrival=float(i),
        runtime=5.0 + (i % 7),
        vf=LinearDecayValueFunction(100.0 + i, 2.0 + 0.1 * i, None if i % 3 else 0.0),
        demand=demand,
    )


def rebuilt_columns(tasks: list) -> list:
    """The from-scratch SoA the incremental columns must match."""
    return [
        np.array([t.arrival for t in tasks]),
        np.array([t.estimate for t in tasks]),
        np.array([t.estimated_remaining for t in tasks]),
        np.array([t.value for t in tasks]),
        np.array([t.decay for t in tasks]),
        np.array([t.bound for t in tasks]),
    ]


def running_union(pool: PendingPool, tasks: list, now: float) -> PoolColumns:
    """The preemption pass's pending ∪ running view of *pool* with *tasks*
    running (:meth:`ProcessorPool.union`): a copy of each, started at
    *now* on a node of its own, so its row's believed RPT is the task's
    own ``estimated_remaining`` (``max(0, x − 0.0)`` is ``x``)."""
    processors = ProcessorPool(max(1, len(tasks)))
    for task in tasks:
        running = copy.copy(task)
        running.last_start = now
        processors.assign(running, now)
    return processors.union(pool, now)


def assert_matches(pool: PendingPool, shadow: list) -> None:
    cols = pool.columns()
    views = (cols.arrival, cols.runtime, cols.remaining, cols.value, cols.decay,
             cols.bound)
    for view, expect in zip(views, rebuilt_columns(shadow)):
        assert view.shape == expect.shape
        assert np.array_equal(view, expect)
    assert pool.tasks == shadow
    assert len(pool) == len(shadow)
    assert pool.has_multi_node == any(t.demand > 1 for t in shadow)


#: One mutation: (op, payload). Fractions pick an index into the current
#: pool so sequences stay valid at any length.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("remove_at"), st.floats(min_value=0.0, max_value=0.999)),
        st.tuples(st.just("remove"), st.floats(min_value=0.0, max_value=0.999)),
        st.tuples(st.just("readd"), st.floats(min_value=0.0, max_value=0.999)),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_columns_match_rebuild_after_arbitrary_mutations(ops):
    pool = PendingPool()
    shadow: list = []
    counter = 0
    for op, payload in ops:
        if op == "add":
            counter += 1
            task = fresh_task(counter, demand=payload)
            pool.add(task)
            shadow.append(task)
        elif not shadow:
            continue
        else:
            index = int(payload * len(shadow))
            if op == "remove_at":
                removed = pool.remove_at(index)
                assert removed is shadow.pop(index)
            elif op == "remove":
                task = shadow.pop(index)
                pool.remove(task)
            else:  # readd: out of the pool, execute a bit, come back
                task = shadow.pop(index)
                pool.remove(task)
                task.submit()
                task.accept()
                task.start(0.0)
                task.preempt(min(1.0, task.remaining / 2))
                pool.add(task)
                shadow.append(task)
        assert_matches(pool, shadow)


@settings(max_examples=30, deadline=None)
@given(
    demands=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=30),
    removals=st.lists(st.floats(min_value=0.0, max_value=0.999), max_size=30),
)
def test_multi_node_counter_tracks_membership(demands, removals):
    pool = PendingPool()
    shadow = []
    for i, demand in enumerate(demands):
        task = fresh_task(i, demand=demand)
        pool.add(task)
        shadow.append(task)
        assert pool.has_multi_node == any(t.demand > 1 for t in shadow)
    for fraction in removals:
        if not shadow:
            break
        shadow.pop(index := int(fraction * len(shadow)))
        pool.remove_at(index)
        assert pool.has_multi_node == any(t.demand > 1 for t in shadow)


def test_preemption_readd_refreshes_the_row():
    """A re-added task's row must carry its post-preemption RPT."""
    pool = PendingPool()
    task = fresh_task(0)
    pool.add(task)
    before = float(pool.columns().remaining[0])
    pool.remove(task)
    task.submit()
    task.accept()
    task.start(0.0)
    task.preempt(2.0)  # two units of work done
    pool.add(task)
    after = float(pool.columns().remaining[0])
    assert after == before - 2.0


def test_columns_views_are_read_only():
    pool = PendingPool()
    pool.add(fresh_task(0))
    cols = pool.columns()
    try:
        cols.remaining[0] = -1.0
    except ValueError:
        pass
    else:  # pragma: no cover - the assignment must fail
        raise AssertionError("pool column views must be read-only")


def test_columns_cached_until_mutation():
    pool = PendingPool()
    pool.add(fresh_task(0))
    first = pool.columns()
    assert pool.columns() is first
    pool.add(fresh_task(1))
    assert pool.columns() is not first


# ----------------------------------------------------------------------
# The expiration column: written once per row, equal to the vector form
# ----------------------------------------------------------------------

def old_expiration(cols) -> np.ndarray:
    """The expression ``decay_horizons`` evaluated at every instant before
    the pool carried it as a column."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(cols.decay > 0.0, (cols.value + cols.bound) / cols.decay, 0.0)


def old_decay_horizons(cols, now: float) -> np.ndarray:
    """A copy of the ``decay_horizons`` kernel the column replaced."""
    delays = np.maximum(0.0, now + cols.remaining - cols.arrival - cols.runtime)
    return np.maximum(0.0, old_expiration(cols) - delays)


def assert_expiration_matches(cols, now: float = 0.0) -> None:
    # bit for bit: array_equal would pass 0.0 for -0.0 and fail nan for nan
    assert cols.expiration.tobytes() == old_expiration(cols).tobytes()
    assert decay_horizons(cols, now).tobytes() == old_decay_horizons(cols, now).tobytes()


#: decay rates at the edges: never decays, overflows the quotient, ordinary;
#: values and bounds reach the domain's edge B
edge_decay = st.sampled_from([0.0, 5e-324, 1e-300, 0.05, 2.0, 100.0])
edge_bound = st.sampled_from([None, 0.0, 25.0, MAX_MAGNITUDE])


@st.composite
def edge_tasks(draw) -> Task:
    return Task(
        arrival=draw(st.floats(min_value=0.0, max_value=50.0)),
        runtime=draw(st.floats(min_value=0.01, max_value=500.0)),
        vf=LinearDecayValueFunction(
            draw(st.floats(min_value=0.1, max_value=MAX_MAGNITUDE)),
            draw(edge_decay),
            draw(edge_bound),
        ),
    )


@pytest.mark.parametrize("value,bound", [(math.nextafter(MAX_MAGNITUDE, math.inf), None),
                                         (1.0, math.nextafter(MAX_MAGNITUDE, math.inf))])
def test_an_edge_value_or_bound_one_float_past_b_is_refused(value, bound):
    with pytest.raises(ValueFunctionError, match="within"):
        LinearDecayValueFunction(value, 0.05, bound)


@settings(max_examples=60, deadline=None)
@given(
    tasks=st.lists(edge_tasks(), min_size=1, max_size=150),
    removals=st.lists(st.floats(min_value=0.0, max_value=0.999), max_size=40),
    candidate=edge_tasks(),
    now=st.floats(min_value=0.0, max_value=1e4),
)
def test_expiration_column_equals_the_vector_expression(tasks, removals, candidate, now):
    pool = PendingPool()
    for task in tasks:  # up to 150 rows: grows past the 64-column backing
        pool.add(task)
        assert_expiration_matches(pool.columns(), now)
    for fraction in removals:
        if len(pool) == 1:
            break
        pool.remove_at(int(fraction * len(pool)))
        assert_expiration_matches(pool.columns(), now)
    probed = pool.probe(candidate)
    assert len(probed) == len(pool) + 1
    assert_expiration_matches(probed, now)
    # running rows after the pool's, as the preemption pass scores them
    union = running_union(pool, tasks[:17], now)
    assert len(union) == len(pool) + len(tasks[:17])
    assert_expiration_matches(union, now)
    assert_expiration_matches(pool.columns(), now)


def test_hand_built_columns_derive_their_expiration():
    cols = PoolColumns(*rebuilt_columns([fresh_task(i) for i in range(5)]))
    assert_expiration_matches(cols, 3.0)
    assert len(PoolColumns.empty().expiration) == 0


def test_expiration_survives_growth_and_tail_shifts():
    """Every edge (bound=inf, decay=0, an overflowing quotient) on both
    sides of the 64-column reallocation and of a ``remove_at`` shift."""
    decays = [0.0, 5e-324, 0.05, 2.0]
    bounds = [None, 0.0, 25.0]
    pool = PendingPool()
    for i in range(200):
        vf = LinearDecayValueFunction(10.0 + i, decays[i % 4], bounds[i % 3])
        pool.add(Task(arrival=float(i), runtime=1.0 + i % 5, vf=vf))
    cols = pool.columns()
    assert np.isinf(cols.expiration[1])  # (11 + inf) / 5e-324
    assert cols.expiration[0] == 0.0  # never decays
    assert_expiration_matches(cols, 7.0)
    for index in (0, 198, 63, 64, 100):
        pool.remove_at(index)
        assert_expiration_matches(pool.columns(), 7.0)
