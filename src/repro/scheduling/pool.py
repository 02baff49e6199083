"""The pending-task pool: Task objects plus cached SoA columns.

The site engine holds queued tasks here.  Heuristic scoring operates on
the pool's :class:`~repro.scheduling.base.PoolColumns`.  The columns are
maintained *incrementally*: task attributes are written into
preallocated capacity-doubling arrays on ``add`` (amortized O(1)), and
removals shift the tail down with one vectorized move instead of
rebuilding every column from Python attribute access.  ``columns()``
itself is O(1) — it only slices the backing storage.  The backing array
has eleven rows: the six scalars read off the task plus ``expiration``,
the one derived quantity no clock enters, computed once when the row is
written instead of at every decision instant; then the four affine-score
coefficient rows (``late, head, slope, cost``, see
:func:`~repro.scheduling.base.affine_coefficients`), likewise clock-free.

Regime contract: the pool counts its rows whose ``expiration`` is not
``+inf`` (``_expiring``: up in ``add``, down in ``remove_at``, like
``_multi_node``) and hands every view that count, the probed rows of a
probe view included (``PoolColumns.expiring``).  Nobody sets it: it
restates the ``expiration`` column, so the kernels read the penalty
regime — none expires (count 0), every horizon is finite (count =
length), or a mix — instead of re-taking a census of the column at
every decision instant.

The coefficient rows belong to the never-expires regime.  They are
bound lazily: the first heuristic that scores a never-expires view fixes
the ``(alpha, discount_rate)`` key they are written for (``_Rows``), and
a heuristic with another key takes the general path.  While they are
*fresh* every write (``add``, ``probe``, ``probe_block``) fills them and
``remove_at`` shifts them with the rest.  Queuing an expiring row makes
them stale: from then on they are neither written nor shifted — the
bounded-penalty regime pays nothing for them — and the first
never-expires view scored after the pool is back in the regime rebuilds
them in one vector pass.  Admission reads them without a view on a
shallow probe (:meth:`PendingPool.affine_probe`), binding and
refreshing them the same way.

Eq. 4's inputs need no check here: every RPT a row can hold is
non-negative by construction (``Task.estimated_remaining``, or
:meth:`ProcessorPool.running_rows
<repro.site.processors.ProcessorPool.running_rows>`), and a value
function refuses a negative decay.

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
``probe()`` / ``probe_block()`` view additionally shows candidate rows
written into the spare columns after the last row; the next probe or
``add()`` overwrites those columns, so a probe view is valid until
either.  The preemption pass scores its block view once and must not
read the view after its first swap (the swap re-adds the victim).
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
)
from repro.tasks.task import Task

#: Rows of the backing ``(_ROWS, capacity)`` array and their indices: the
#: :class:`PoolColumns` fields in field order, then the coefficient rows.
_COLUMNS = 7
_ARRIVAL, _RUNTIME, _REMAINING, _VALUE, _DECAY, _BOUND, _EXPIRATION = range(_COLUMNS)
_LATE, _HEAD, _SLOPE, _COST = range(_COLUMNS, _COLUMNS + 4)
_ROWS = _COLUMNS + 4

#: Initial backing capacity (grows by doubling).
_MIN_CAPACITY = 64

#: Fewest rows a probe takes the vector path with (:meth:`PendingPool.affine_probe`).
#: Not a tuning knob: NumPy sums fewer than 8 float64s left to right and
#: switches to an 8-way pairwise sum from 8 on, so only below it is a
#: left-to-right sum over Python floats the ``Σd`` of
#: :func:`~repro.scheduling.base.affine_scores` and admission's Eq. 8
#: sum bit for bit.
SCALAR_PROBE_ROWS = 8


class _Rows:
    """A pool's row state that its views reach: the coefficient rows (the
    key they are written for, and whether they are current).

    ``key`` is the ``(alpha, discount_rate)`` of the first heuristic that
    scored a never-expires view of the pool (``None`` until then);
    ``fresh`` says the rows hold that key's coefficients for every row of
    the pool, which the pool keeps true only while no expiring row is
    queued.  ``data`` is the pool's backing array (replaced on growth).
    Views reach the state through this object rather than the pool, so a
    view does not close a reference cycle with the pool that caches it.
    """

    __slots__ = ("key", "fresh", "data")

    def __init__(self, data: np.ndarray) -> None:
        self.key: Optional[tuple[float, float]] = None
        self.fresh = False
        self.data = data

    def rows(self, key: tuple[float, float], n: int) -> Optional[np.ndarray]:
        """The coefficient rows of the first *n* columns, which must all
        never expire, binding *key* if nothing is bound yet; ``None`` for
        another key."""
        if key != self.key:
            if self.key is not None:
                return None
            self.key = key
        block = self.data[_COLUMNS:, :n]
        if not self.fresh:
            # first bind, or back in the never-expires regime: one pass
            # over every row of the view (probed rows included)
            block[...] = affine_coefficients(*self.data[:_BOUND, :n], *key)
            self.fresh = True
        return block


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
        arrival, runtime, remaining = task.arrival, task.estimate, task.estimated_remaining
        state = self._rows
        n = len(self._tasks)
        data = self._data
        if n == data.shape[1]:
            data = self._grow(n, n + 1)
        data[_ARRIVAL, n] = arrival
        data[_RUNTIME, n] = runtime
        data[_REMAINING, n] = remaining
        vf = task.linear_vf
        value, decay, bound = vf.value, vf.decay, vf.bound_or_inf()
        data[_VALUE, n] = value
        data[_DECAY, n] = decay
        data[_BOUND, n] = bound
        # the scalar twin of expiration_delays (float division overflows
        # to inf without raising, as the vector form does)
        expiration = (value + bound) / decay if decay > 0.0 else 0.0
        data[_EXPIRATION, n] = expiration
        if state.fresh and expiration == math.inf:
            # the scalar twin of affine_coefficients, operation for
            # operation
            alpha, rate = state.key
            denom = max(remaining, MIN_REMAINING)
            growth = 1.0 + rate * remaining
            data[_LATE, n] = arrival + runtime - remaining
            data[_HEAD, n] = (
                alpha * (value / growth) / denom + (1.0 - alpha) * (decay * remaining) / denom
            )
            data[_SLOPE, n] = alpha * (decay / growth) / denom
            data[_COST, n] = (1.0 - alpha) * remaining / denom
        return expiration

    def _grow(self, n: int, need: int) -> np.ndarray:
        """Reallocate to at least *need* columns (doubling), keeping the first *n*."""
        grown = np.empty((_ROWS, max(_MIN_CAPACITY, 2 * n, need)))
        grown[:, :n] = self._data[:, :n]
        self._data = self._rows.data = grown
        return grown

    def _view(self, n: int, expiring: int) -> PoolColumns:
        """Read-only view of the first *n* columns of the backing storage,
        *expiring* of which can expire."""
        block = self._data[:_COLUMNS, :n]
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

    def affine_probe(self, task: Task, key: tuple[float, float]) -> Optional[list[list[float]]]:
        """The rows ``late, head, slope, cost, remaining, decay`` of a
        shallow never-expires probe as Python floats, *task* last; else
        ``None``.

        Admission's scalar path: the probe :meth:`probe` would write,
        with the coefficient rows a never-expires view would score from
        (:meth:`PoolColumns.affine`), bound to *key* and refreshed the
        same way.  ``None`` — commit nothing, bind nothing — when some
        row or *task* expires, another key is bound, or the probe has
        :data:`SCALAR_PROBE_ROWS` rows or more; the caller then takes
        the vector path.
        """
        n = len(self._tasks)
        state = self._rows
        if self._expiring or n + 1 >= SCALAR_PROBE_ROWS or state.key not in (None, key):
            return None
        if self._write_row(task) != math.inf:
            return None
        if not state.fresh:
            state.rows(key, n + 1)
        block = self._data[:, : n + 1].tolist()
        return [block[row] for row in (_LATE, _HEAD, _SLOPE, _COST, _REMAINING, _DECAY)]

    def probe_block(self, rows: np.ndarray) -> PoolColumns:
        """:meth:`probe` for a ``(7, k)`` block of rows in column-field
        order, ``expiration`` included.

        The preemption pass's pending ∪ running union: the running tasks'
        rows (:meth:`ProcessorPool.running_rows
        <repro.site.processors.ProcessorPool.running_rows>`, which keeps
        their ``expiration``) land in the spare columns after the last
        pending row, so the union is scored without copying the pool.
        """
        state = self._rows
        n = len(self._tasks)
        k = rows.shape[1]
        end = n + k
        data = self._data
        if end > data.shape[1]:
            data = self._grow(n, end)
        data[:_COLUMNS, n:end] = rows
        expiring = self._expiring + k - int(np.count_nonzero(rows[_EXPIRATION] == math.inf))
        if not expiring and state.fresh:
            data[_COLUMNS:, n:end] = affine_coefficients(*rows[:_BOUND], *state.key)
        return self._view(end, expiring)

    def remove_at(self, index: int) -> Task:
        """Remove and return the task at *index* (column index space)."""
        n = len(self._tasks)
        if not 0 <= index < n:
            raise SchedulingError(f"pool index {index} out of range (n={n})")
        task = self._tasks.pop(index)
        if self._data[_EXPIRATION, index] != math.inf:
            self._expiring -= 1
        if index < n - 1:
            # one vectorized tail shift preserves order (see the
            # determinism contract above); stale coefficient rows stay put
            rows = _ROWS if self._rows.fresh else _COLUMNS
            self._data[:rows, index : n - 1] = self._data[:rows, index + 1 : n]
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
