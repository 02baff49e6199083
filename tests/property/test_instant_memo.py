"""Property tests: the pool-derived vectors and the zero-copy admission probe.

The four vectors derived from a pool view at a clock reading (delays,
yields, decay horizons, effective decay) are read from the view's
columns, and ``PendingPool.probe`` shows a candidate in the spare column
after the pool's last row without committing it.  Whatever the
interleaving of mutations, probes and clock moves, every vector read
from a view must be bit-equal to the formula evaluated from scratch on
the surviving tasks, and a probe must leave the pool as it found it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    PendingPool,
    current_delays,
    decay_horizons,
    effective_decay,
)
from repro.scheduling.pool import _MIN_CAPACITY
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction
from tests.oracles import current_yields

ACCESSORS = (current_delays, current_yields, decay_horizons, effective_decay)


def fresh_task(i: int) -> Task:
    # a mix of unbounded, bounded and zero-decay value functions, so the
    # horizons are inf, finite (and expiring as the clock moves) and 0
    return Task(
        arrival=float(i % 11),
        runtime=5.0 + (i % 7),
        vf=LinearDecayValueFunction(
            100.0 + i, 0.0 if i % 5 == 0 else 2.0 + 0.1 * i, None if i % 3 else 0.0
        ),
    )


def uncached(tasks: list, now: float) -> list:
    """The four vectors from scratch, in ``ACCESSORS`` order."""
    arrival = np.array([t.arrival for t in tasks])
    runtime = np.array([t.estimate for t in tasks])
    remaining = np.array([t.estimated_remaining for t in tasks])
    value = np.array([t.value for t in tasks])
    decay = np.array([t.decay for t in tasks])
    bound = np.array([t.bound for t in tasks])
    delays = np.maximum(0.0, now + remaining - arrival - runtime)
    yields = np.maximum(value - delays * decay, -bound)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expiration = np.where(decay > 0.0, (value + bound) / decay, 0.0)
    horizons = np.maximum(0.0, expiration - delays)
    d_eff = np.where(horizons > 0.0, decay, 0.0)
    return [delays, yields, horizons, d_eff]


def assert_vectors(cols, tasks: list, now: float, read_order) -> None:
    expect = uncached(tasks, now)
    assert len(cols) == len(tasks)
    for which in read_order:
        got = ACCESSORS[which](cols, now)
        assert got.tobytes() == expect[which].tobytes(), ACCESSORS[which].__name__


read_orders = st.permutations(range(4))
fractions = st.floats(min_value=0.0, max_value=0.999)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), read_orders),
        st.tuples(st.just("remove_at"), fractions),
        st.tuples(st.just("probe"), read_orders),
        st.tuples(st.just("tick"), st.floats(min_value=0.0, max_value=400.0)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(
    # start empty, one short of the first backing capacity, or exactly at it
    prefill=st.sampled_from([0, _MIN_CAPACITY - 1, _MIN_CAPACITY]),
    ops=ops,
    first_read=read_orders,
)
def test_memo_and_probe_match_uncached_under_any_interleaving(prefill, ops, first_read):
    pool = PendingPool()
    shadow: list = []
    counter = 0
    now = 0.0
    for _ in range(prefill):
        counter += 1
        shadow.append(fresh_task(counter))
        pool.add(shadow[-1])
    read_order = first_read
    for op, payload in ops:
        if op == "add":
            counter += 1
            shadow.append(fresh_task(counter))
            pool.add(shadow[-1])
            read_order = payload
        elif op == "remove_at":
            if not shadow:
                continue
            index = int(payload * len(shadow))
            assert pool.remove_at(index) is shadow.pop(index)
        elif op == "tick":
            now = payload
        else:  # probe: one extra row, nothing committed
            counter += 1
            candidate = fresh_task(counter)
            before = pool.columns()
            probed = pool.probe(candidate)
            assert_vectors(probed, [*shadow, candidate], now, payload)
            assert pool.columns() is before
            assert len(pool) == len(shadow)
            assert pool.tasks == shadow
        # the committed view, after every operation (a probe included)
        assert_vectors(pool.columns(), shadow, now, read_order)


def test_probe_at_exactly_full_capacity_grows_the_storage():
    pool = PendingPool()
    shadow = [fresh_task(i) for i in range(_MIN_CAPACITY)]
    for task in shadow:
        pool.add(task)
    held = pool.columns()
    candidate = fresh_task(_MIN_CAPACITY)
    probed = pool.probe(candidate)  # no spare column left: must grow first
    assert len(probed) == _MIN_CAPACITY + 1
    assert_vectors(probed, [*shadow, candidate], 50.0, range(4))
    # the view handed out before the probe still reads the same 64 rows
    assert len(held) == _MIN_CAPACITY
    assert_vectors(held, shadow, 50.0, range(4))
    assert len(pool) == _MIN_CAPACITY
    # and the grown storage takes the next commit
    pool.add(candidate)
    assert_vectors(pool.columns(), [*shadow, candidate], 50.0, range(4))

