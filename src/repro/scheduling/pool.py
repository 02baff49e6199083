"""The pending-task pool: Task objects plus cached SoA columns.

The site engine holds queued tasks here.  Heuristic scoring operates on
the pool's :class:`~repro.scheduling.base.PoolColumns`.  The columns are
maintained *incrementally*: task attributes are written into
preallocated capacity-doubling arrays on ``add`` (amortized O(1)), and
removals shift the tail down with one vectorized move instead of
rebuilding every column from Python attribute access.  ``columns()``
itself is O(1) — it only slices the backing storage.  The backing array
has thirteen rows: two floor rows (below), then the six scalars read off
the task plus ``expiration``, the one derived quantity no clock enters,
computed once when the row is written instead of at every decision
instant; then the four affine-score coefficient rows (``late, head,
slope, cost``, see :func:`~repro.scheduling.base.affine_coefficients`),
likewise clock-free.

Regime contract: the pool counts its rows whose ``expiration`` is not
``+inf`` (``_expiring``: up in ``add``, down in ``remove_at``, like
``_multi_node``) and hands every view that count, the probed rows of a
probe view included (``PoolColumns.expiring``).  Nobody sets it: it
restates the ``expiration`` column, so the scorers read the penalty
regime — none expires (count 0: the affine rows below), every horizon
is finite (count = length), or a mix (both: the row form of
:func:`~repro.scheduling.base.row_scores`) — instead of re-taking a
census of the column at every decision instant.

The coefficient rows belong to the never-expires regime.  They are
bound lazily: the first heuristic that scores a never-expires view fixes
the ``(alpha, discount_rate)`` key they are written for (``_Rows``), and
a heuristic with another key takes the row form.  While they are
*fresh* every write (``add``, ``probe``, ``probe_running``) fills them and
``remove_at`` shifts them with the rest.  Queuing an expiring row makes
them stale: from then on they are neither written nor shifted — the
bounded-penalty regime pays nothing for them — and the first
never-expires view scored after the pool is back in the regime rebuilds
them in one vector pass.  Admission reads them without a view on a
shallow probe (:meth:`PendingPool.affine_probe`), binding and
refreshing them the same way.

Second count: rows at their floor.  A row whose horizon is exactly 0
and whose raw yield is strictly below ``−bound`` stays there whatever
the clock does next — its delay only grows — until the pool rewrites it
on a preempt or crash requeue (``add`` after ``remove_at``).  The row
form finds such rows on any view that can expire — every row bounded,
or bounded among unbounded ones — and hands them to the pool
(``_Rows.mark``, from :func:`~repro.scheduling.base.row_scores`), which
counts them
beside ``_expiring`` (``_Rows.count``) and keeps two rows in front of the
columns — a flag (``_OPEN``: 0.0 at the floor, 1.0 elsewhere, the spare
columns included, so ``add`` and the probes write none) and the score
the row has when no competitor decays — plus the rows' indices sorted by
RPT (``order``) beside their clock-free terms in that order (``floor``:
``α·PV``, the clamped RPT, the RPT).  The sorted arrays are rebuilt from
the flags when a scorer needs them after a mark (``_Rows.ranked``: one
sort); a removal only takes its row out of them and renumbers the rows
after it, so a pool whose floor set does not grow is never sorted again.
While any row is at its floor ``remove_at``'s one tail shift carries the
two rows and flags the column it vacates open.  The terms are written
for the ``(alpha, discount_rate)`` key the coefficient rows are bound to
(``_Rows.key``, bound by whichever regime scores first), and a heuristic
with another key scores every row by the row form's own arithmetic.  A
flag found at one clock
reading holds at every later one, so a view scored at an earlier reading
than the latest mark takes the per-row path instead
(``_Rows.floor_rows``).  While no row is at its floor none of this is
kept — the first mark sets every flag — so a pool that never expires
never writes or shifts floor state.

Eq. 4's inputs need no check here: every RPT a row can hold is
non-negative by construction (``Task.estimated_remaining``, or the
clamp of :meth:`PendingPool.probe_running`), and a value function
refuses a negative decay.

Determinism contract: removals preserve pool order.  Swap-delete would
be O(1) but reorders the index space, which changes ``argmax``
tie-breaking and therefore schedules — the experiment layer promises
byte-identical results regardless of worker count, so order is part of
the pool's public contract.

Aliasing contract: the arrays inside a :class:`PoolColumns` view are
read-only slices of the pool's backing storage, valid until the next
mutation.  Consumers must not hold a view across ``add``/``remove`` —
every caller in the engine re-reads ``columns()`` after mutating, and
the read-only flag turns accidental writes into hard errors.  A
``probe()`` / ``probe_running()`` view additionally shows candidate rows
written into the spare columns after the last row; the next probe or
``add()`` overwrites those columns, so a probe view is valid until
either.  The preemption pass scores its union view once and must not
read the view after its first swap (the swap re-adds the victim).  The
running rows reach the spare columns in one write: the processor pool
keeps them as a block (:meth:`ProcessorPool.union
<repro.site.processors.ProcessorPool.union>`) with the count of them
that can expire, and :meth:`PendingPool.probe_running` copies the block
in and brings its RPT row to the one believed now, in place, so no copy
of the block and no census of its ``expiration`` row is taken per pass.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from repro.errors import SchedulingError
from repro.scheduling.base import (
    MIN_REMAINING,
    PoolColumns,
    affine_coefficients,
    floor_terms,
)
from repro.tasks.task import Task

#: Rows of the backing ``(_ROWS, capacity)`` array and their indices: the
#: floor rows, the :class:`PoolColumns` fields in field order, then the
#: coefficient rows.
_OPEN, _FLOOR_SCORE = range(2)
_COLUMNS = 7
_ARRIVAL, _RUNTIME, _REMAINING, _VALUE, _DECAY, _BOUND, _EXPIRATION = range(2, 2 + _COLUMNS)
_LATE, _HEAD, _SLOPE, _COST = range(_EXPIRATION + 1, _EXPIRATION + 5)
_ROWS = _COST + 1
#: What ``remove_at`` shifts: the columns, with the floor rows while any
#: row is at its floor, or with the coefficient rows while they are fresh.
_COLUMN_ROWS = slice(_ARRIVAL, _EXPIRATION + 1)
_FLOOR_AND_COLUMNS = slice(0, _EXPIRATION + 1)
_COLUMNS_AND_COEFFICIENTS = slice(_ARRIVAL, _ROWS)

#: Initial backing capacity (grows by doubling).
_MIN_CAPACITY = 64

#: Fewest rows a probe takes the vector path with (:meth:`PendingPool.affine_probe`).
#: Not a tuning knob: NumPy sums fewer than 8 float64s left to right and
#: switches to an 8-way pairwise sum from 8 on, so only below it is a
#: left-to-right sum over Python floats the ``Σd`` of
#: :func:`~repro.scheduling.base.affine_scores` and admission's Eq. 8
#: sum bit for bit.
SCALAR_PROBE_ROWS = 8


def _scalars(task: Task) -> tuple[float, float, float, float, float, float, float]:
    """The seven column values of *task*'s row, in field order."""
    vf = task.linear_vf
    value, decay, bound = vf.value, vf.decay, vf.bound_or_inf()
    # the scalar twin of expiration_delays (float division overflows to
    # inf without raising, as the vector form does)
    expiration = (value + bound) / decay if decay > 0.0 else 0.0
    return task.arrival, task.estimate, task.estimated_remaining, value, decay, bound, expiration


def _coefficients(
    arrival: float,
    runtime: float,
    remaining: float,
    value: float,
    decay: float,
    key: tuple[float, float],
) -> tuple[float, float, float, float]:
    """One row's ``late, head, slope, cost`` for *key*: the scalar twin of
    :func:`~repro.scheduling.base.affine_coefficients`, operation for
    operation."""
    alpha, rate = key
    denom = max(remaining, MIN_REMAINING)
    growth = 1.0 + rate * remaining
    return (
        arrival + runtime - remaining,
        alpha * (value / growth) / denom + (1.0 - alpha) * (decay * remaining) / denom,
        alpha * (decay / growth) / denom,
        (1.0 - alpha) * remaining / denom,
    )


class _Rows:
    """A pool's row state that its views reach: the coefficient rows (the
    key they are written for, and whether they are current), and the
    rows at their floor.

    ``key`` is the ``(alpha, discount_rate)`` of the first heuristic that
    scored a never-expires view of the pool, or one that can expire
    (``None`` until then); ``fresh`` says the rows hold that key's coefficients for
    every row of the pool, which the pool keeps true only while no
    expiring row is queued.  ``data`` is the pool's backing array
    (replaced on growth), ``pending`` the number of pool rows under the
    views it last handed out (the rows after them are probed).  ``count``
    is the number of rows at their floor; ``order`` holds their pool
    indices sorted by RPT and ``floor`` their ``(3, count)`` terms ``α·pv,
    denom, rpt`` for ``key`` in that order, both only while not ``stale``
    (a mark makes them stale); ``since`` is the clock reading of the
    latest mark.  Views reach the state through this object rather than
    the pool, so a view does not close a reference cycle with the pool
    that caches it.
    """

    __slots__ = (
        "key", "fresh", "data", "pending", "count", "order", "floor", "stale", "since",
    )

    def __init__(self, data: np.ndarray) -> None:
        self.key: Optional[tuple[float, float]] = None
        self.fresh = False
        self.data = data
        self.pending = 0
        self.count = 0
        self.order = np.empty(0, dtype=np.intp)
        self.floor = np.empty((3, 0))
        self.stale = True
        self.since = -math.inf

    def rows(self, key: tuple[float, float], n: int) -> Optional[np.ndarray]:
        """The coefficient rows of the first *n* columns, which must all
        never expire, binding *key* if nothing is bound yet; ``None`` for
        another key."""
        if key != self.key:
            if self.key is not None:
                return None
            self.key = key
        block = self.data[_LATE:, :n]
        if not self.fresh:
            # first bind, or back in the never-expires regime: one pass
            # over every row of the view (probed rows included)
            block[...] = affine_coefficients(*self.data[_ARRIVAL:_BOUND, :n], *key)
            self.fresh = True
        return block

    def floor_rows(self, key: tuple[float, float], now: float) -> bool:
        """Whether the floor state serves *key* at *now*, binding *key* if
        nothing is bound yet: the flags hold at any reading from the
        latest mark on."""
        if key != self.key:
            if self.key is not None:
                return False
            self.key = key
        return now >= self.since

    def open_rows(self, n: int) -> np.ndarray:
        """The indices of the first *n* rows not at their floor."""
        return self.data[_OPEN, :n].nonzero()[0]

    def columns(self, index) -> np.ndarray:
        """The seven view columns of the rows *index* (a slice or indices)."""
        block = self.data[_COLUMN_ROWS]
        return block[:, index] if isinstance(index, slice) else block.take(index, axis=1)

    def floor_scores(self, n: int) -> np.ndarray:
        """An owned copy of the no-decay score row of the first *n* rows."""
        return self.data[_FLOOR_SCORE, :n].copy()

    def ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """``order`` and ``floor``, rebuilt from the flags if stale."""
        if self.stale:
            data = self.data
            index = (data[_OPEN, : self.pending] == 0.0).nonzero()[0]
            rpt = data[_REMAINING].take(index)
            ranked = rpt.argsort(kind="stable")
            self.order = index.take(ranked)
            bound = data[_BOUND].take(self.order)
            self.floor = floor_terms(bound, rpt.take(ranked), self.key)
            self.stale = False
        return self.order, self.floor

    def mark(self, index: np.ndarray, score: np.ndarray, now: float) -> None:
        """Flag the pool rows *index*, found at their floor at *now*, with
        their no-decay *score*."""
        data = self.data
        if not self.count:
            data[_OPEN] = 1.0  # the flags are kept from the first mark on
        data[_OPEN, index] = 0.0
        data[_FLOOR_SCORE, index] = score
        self.count += len(index)
        self.stale = True
        self.since = now

    def drop(self, index: int) -> None:
        """Row *index* is about to be removed: take it out of the count and
        the sorted arrays, and renumber the rows after it."""
        at_floor = not self.data[_OPEN, index]
        self.count -= at_floor
        if self.stale:
            return
        order = self.order
        if at_floor:
            keep = order != index
            order = self.order = order.compress(keep)
            self.floor = self.floor.compress(keep, axis=1)
        order -= order > index


class PendingPool:
    """Mutable ordered set of queued tasks with vectorized column access."""

    __slots__ = ("_tasks", "_data", "_columns", "_multi_node", "_expiring", "_rows")

    def __init__(self) -> None:
        self._tasks: list[Task] = []
        self._data = np.empty((_ROWS, _MIN_CAPACITY))
        self._columns: Optional[PoolColumns] = None
        self._multi_node = 0  # queued tasks with demand > 1
        self._expiring = 0  # queued tasks whose expiration is not +inf
        self._rows = _Rows(self._data)

    # ------------------------------------------------------------------
    def add(self, task: Task) -> None:
        """Append *task*, capturing its scheduler-visible scalars.

        The row snapshots the *believed* quantities (declared estimate,
        estimated remaining time) at insertion.  That is sufficient
        because a queued task's RPT only changes through preemption or a
        crash requeue, both of which re-add it — writing a fresh row.
        """
        if self._write_row(task) != math.inf:
            self._expiring += 1
            self._rows.fresh = False
        self._tasks.append(task)
        if task.demand > 1:
            self._multi_node += 1
        self._columns = None

    def _write_row(self, task: Task) -> float:
        """Write *task*'s scalars into the first spare column, growing if
        full, and its coefficients while they are fresh; returns the row's
        ``expiration``."""
        arrival, runtime, remaining, value, decay, bound, expiration = _scalars(task)
        state = self._rows
        n = len(self._tasks)
        data = self._data
        if n == data.shape[1]:
            data = self._grow(n, n + 1)
        data[_ARRIVAL, n] = arrival
        data[_RUNTIME, n] = runtime
        data[_REMAINING, n] = remaining
        data[_VALUE, n] = value
        data[_DECAY, n] = decay
        data[_BOUND, n] = bound
        data[_EXPIRATION, n] = expiration
        if state.fresh and expiration == math.inf:
            data[_LATE, n], data[_HEAD, n], data[_SLOPE, n], data[_COST, n] = _coefficients(
                arrival, runtime, remaining, value, decay, state.key
            )
        return expiration

    def _grow(self, n: int, need: int) -> np.ndarray:
        """Reallocate to at least *need* columns (doubling), keeping the first *n*."""
        grown = np.empty((_ROWS, max(_MIN_CAPACITY, 2 * n, need)))
        if self._rows.count:  # the floor rows while kept
            grown[:_ARRIVAL, :n] = self._data[:_ARRIVAL, :n]
            grown[_OPEN, n:] = 1.0
        grown[_ARRIVAL:, :n] = self._data[_ARRIVAL:, :n]
        self._data = self._rows.data = grown
        return grown

    def _view(self, n: int, expiring: int) -> PoolColumns:
        """Read-only view of the first *n* columns of the backing storage,
        *expiring* of which can expire."""
        self._rows.pending = len(self._tasks)
        block = self._data[_COLUMN_ROWS, :n]
        block.flags.writeable = False
        # seven row views; they inherit the read-only flag
        view = PoolColumns(*block, expiring)
        view._source = self._rows
        return view

    def probe(self, task: Task) -> PoolColumns:
        """The pool's columns with *task* as one extra last row; commits nothing.

        Admission's candidate-schedule probe where it is not shallow and
        never-expiring (:meth:`affine_probe`).  The candidate is written
        into the spare column after the last row, which no ``columns()``
        view can see, so ``columns()``, ``len()`` and the task list are
        untouched.  It snapshots the same *believed* quantities as
        :meth:`add`.
        """
        expiration = self._write_row(task)
        return self._view(len(self._tasks) + 1, self._expiring + (expiration != math.inf))

    def affine_probe(
        self, task: Task, key: tuple[float, float]
    ) -> Optional[tuple[list[float], ...]]:
        """The rows ``late, head, slope, cost, remaining, decay`` of a
        shallow never-expires probe as Python lists, *task* last; else
        ``None``.

        Admission's scalar path: the rows a never-expires view of
        :meth:`probe` would score from (:meth:`PoolColumns.affine`),
        without the probe's write.  The pool's own rows come from its
        coefficient rows, bound to *key* and refreshed as a view binds
        and refreshes them; *task*'s are computed here by the expression
        :meth:`add` writes (``_coefficients``), and nothing is written
        into the spare column.  ``None`` — commit nothing, bind nothing —
        when some row or *task* expires, another key is bound, or the
        probe has :data:`SCALAR_PROBE_ROWS` rows or more; the caller then
        takes the vector path.
        """
        n = len(self._tasks)
        state = self._rows
        if self._expiring or n + 1 >= SCALAR_PROBE_ROWS or state.key not in (None, key):
            return None
        arrival, runtime, remaining, value, decay, _, expiration = _scalars(task)
        if expiration != math.inf:
            return None
        if not state.fresh:
            state.rows(key, n)
        # one list per backing row from remaining on: the view columns
        # from there, then the coefficient rows
        rpt, _, rate, _, _, late, head, slope, cost = self._data[_REMAINING:, :n].tolist()
        rpt.append(remaining)
        rate.append(decay)
        a, b, c, d = _coefficients(arrival, runtime, remaining, value, decay, key)
        late.append(a)
        head.append(b)
        slope.append(c)
        cost.append(d)
        return late, head, slope, cost, rpt, rate

    def probe_running(
        self, rows: np.ndarray, starts: np.ndarray, expiring: int, now: float
    ) -> PoolColumns:
        """:meth:`probe` for the running tasks' rows: the preemption pass's
        pending ∪ running union.

        *rows* is a ``(7, k)`` block in column-field order, ``expiration``
        included, whose RPT row holds each task's estimated remaining time
        at its last start *starts*; *expiring* of its rows can expire.
        It is written once, into the spare columns after the last pending
        row, so the union is scored without copying the pool, and the RPT
        is taken there, in place, to the one believed at *now*: ``max(0,
        estimated_remaining − (now − last_start))``, the expression of
        :meth:`ProcessorPool.free_times
        <repro.site.processors.ProcessorPool.free_times>`.  What
        :meth:`ProcessorPool.union
        <repro.site.processors.ProcessorPool.union>` hands over.
        """
        state = self._rows
        n = len(self._tasks)
        end = n + rows.shape[1]
        data = self._data
        if end > data.shape[1]:
            data = self._grow(n, end)
        data[_COLUMN_ROWS, n:end] = rows
        believed = data[_REMAINING, n:end]
        believed -= now - starts
        np.maximum(0.0, believed, out=believed)
        expiring += self._expiring
        if not expiring and state.fresh:
            # the five view rows before bound feed the coefficients
            data[_LATE:, n:end] = affine_coefficients(*data[_ARRIVAL:_BOUND, n:end], *state.key)
        return self._view(end, expiring)

    def remove_at(self, index: int) -> Task:
        """Remove and return the task at *index* (column index space)."""
        n = len(self._tasks)
        if not 0 <= index < n:
            raise SchedulingError(f"pool index {index} out of range (n={n})")
        task = self._tasks.pop(index)
        if self._data[_EXPIRATION, index] != math.inf:
            self._expiring -= 1
        state = self._rows
        floored = state.count
        if floored:
            state.drop(index)
            rows = _FLOOR_AND_COLUMNS
        else:
            rows = _COLUMNS_AND_COEFFICIENTS if state.fresh else _COLUMN_ROWS
        if index < n - 1:
            # one vectorized tail shift preserves order (see the
            # determinism contract above); stale rows stay put
            self._data[rows, index : n - 1] = self._data[rows, index + 1 : n]
        if floored:
            self._data[_OPEN, n - 1] = 1.0  # the vacated column is not at its floor
        if task.demand > 1:
            self._multi_node -= 1
        self._columns = None
        return task

    def remove(self, task: Task) -> None:
        try:
            index = self._tasks.index(task)
        except ValueError:
            raise SchedulingError(f"task {task.tid} is not in the pool") from None
        self.remove_at(index)

    @property
    def has_multi_node(self) -> bool:
        """True when any queued task gang-schedules more than one node.

        The dispatch loop uses this to keep the common single-node case
        on the O(n) argmax path instead of a full sort."""
        return self._multi_node > 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __bool__(self) -> bool:
        return bool(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __contains__(self, task: Task) -> bool:
        return task in self._tasks

    def task_at(self, index: int) -> Task:
        return self._tasks[index]

    @property
    def tasks(self) -> list[Task]:
        """Snapshot list of pooled tasks (copy; safe to mutate)."""
        return list(self._tasks)

    # ------------------------------------------------------------------
    def columns(self) -> PoolColumns:
        """SoA view aligned with the pool's current order.

        O(1): slices the incrementally maintained backing storage.  The
        slices are marked read-only and are invalidated (in the sense
        that they alias mutated storage) by the next pool mutation; no
        engine code holds a view across mutations.

        The view carries the scheduler's *believed* quantities: the
        declared estimate and the estimated remaining time.  With
        accurate predictions (the paper's assumption) these equal the
        true runtime/RPT; under the misestimation extension the engine
        must not see ground truth.
        """
        if self._columns is None:
            self._columns = self._view(len(self._tasks), self._expiring)
        return self._columns
