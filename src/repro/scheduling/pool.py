"""The pending-task pool: Task objects plus cached SoA columns.

The site engine holds queued tasks here.  Heuristic scoring operates on
the pool's :class:`~repro.scheduling.base.PoolColumns`.  The columns are
maintained *incrementally*: task attributes are written into
preallocated capacity-doubling arrays on ``add`` (amortized O(1)), and
removals shift the tail down with one vectorized move instead of
rebuilding every column from Python attribute access.  ``columns()``
itself is O(1) — it only slices the backing storage.  The backing array
has seven rows: the six scalars read off the task plus ``expiration``,
the one derived quantity no clock enters, computed once when the row is
written instead of at every decision instant.

Regime contract: the pool counts its rows whose ``expiration`` is not
``+inf`` (``_expiring``: up in ``add``, down in ``remove_at``, like
``_multi_node``) and hands every view the derived ``never_expires`` —
the count is zero and, on a probe view, the probed rows never expire
either.  Nobody sets the flag: it restates the ``expiration`` column, so
the kernels read the penalty regime instead of re-taking a census of
the column at every decision instant.

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
from repro.scheduling.base import PoolColumns, expiration_delays
from repro.tasks.task import Task

#: Rows of the backing ``(_ROWS, capacity)`` array and their indices, in
#: :class:`PoolColumns` field order.
_ROWS = 7
_ARRIVAL, _RUNTIME, _REMAINING, _VALUE, _DECAY, _BOUND, _EXPIRATION = range(_ROWS)

#: Initial backing capacity (grows by doubling).
_MIN_CAPACITY = 64


class PendingPool:
    """Mutable ordered set of queued tasks with vectorized column access."""

    __slots__ = ("_tasks", "_data", "_columns", "_multi_node", "_expiring")

    def __init__(self) -> None:
        self._tasks: list[Task] = []
        self._data = np.empty((_ROWS, _MIN_CAPACITY))
        self._columns: Optional[PoolColumns] = None
        self._multi_node = 0  # queued tasks with demand > 1
        self._expiring = 0  # queued tasks whose expiration is not +inf

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
        self._tasks.append(task)
        if task.demand > 1:
            self._multi_node += 1
        self._columns = None

    def _write_row(self, task: Task) -> float:
        """Write *task*'s scalars into the first spare column, growing if
        full; returns the row's ``expiration``."""
        n = len(self._tasks)
        data = self._data
        if n == data.shape[1]:
            data = self._grow(n, n + 1)
        data[_ARRIVAL, n] = task.arrival
        data[_RUNTIME, n] = task.estimate
        data[_REMAINING, n] = task.estimated_remaining
        vf = task.linear_vf
        value, decay, bound = vf.value, vf.decay, vf.bound_or_inf()
        data[_VALUE, n] = value
        data[_DECAY, n] = decay
        data[_BOUND, n] = bound
        # the scalar twin of expiration_delays (float division overflows
        # to inf without raising, as the vector form does)
        expiration = (value + bound) / decay if decay > 0.0 else 0.0
        data[_EXPIRATION, n] = expiration
        return expiration

    def _grow(self, n: int, need: int) -> np.ndarray:
        """Reallocate to at least *need* columns (doubling), keeping the first *n*."""
        grown = np.empty((_ROWS, max(_MIN_CAPACITY, 2 * n, need)))
        grown[:, :n] = self._data[:, :n]
        self._data = grown
        return grown

    def _view(self, n: int, never_expires: bool) -> PoolColumns:
        """Read-only view of the first *n* columns of the backing storage."""
        block = self._data[:, :n]
        block.flags.writeable = False
        # seven row views; they inherit the read-only flag
        return PoolColumns(*block, never_expires)

    def probe(self, task: Task) -> PoolColumns:
        """The pool's columns with *task* as one extra last row; commits nothing.

        Admission's candidate-schedule probe.  The candidate is written
        into the spare column after the last row, which no ``columns()``
        view can see, so ``columns()``, ``len()`` and the task list are
        untouched.  It snapshots the same *believed* quantities as
        :meth:`add`.
        """
        expiration = self._write_row(task)
        return self._view(
            len(self._tasks) + 1, self._expiring == 0 and expiration == math.inf
        )

    def probe_block(self, rows: np.ndarray) -> PoolColumns:
        """:meth:`probe` for a ``(6, k)`` block of rows in column-field order.

        The preemption pass's pending ∪ running union: the running tasks'
        rows land in the spare columns after the last pending row, so the
        union is scored without copying the pool.
        """
        n = len(self._tasks)
        end = n + rows.shape[1]
        data = self._data
        if end > data.shape[1]:
            data = self._grow(n, end)
        data[:_EXPIRATION, n:end] = rows
        expiration = expiration_delays(rows[_VALUE], rows[_DECAY], rows[_BOUND])
        data[_EXPIRATION, n:end] = expiration
        return self._view(
            end, self._expiring == 0 and bool(np.isposinf(expiration).all())
        )

    def remove_at(self, index: int) -> Task:
        """Remove and return the task at *index* (column index space)."""
        n = len(self._tasks)
        if not 0 <= index < n:
            raise SchedulingError(f"pool index {index} out of range (n={n})")
        task = self._tasks.pop(index)
        if self._data[_EXPIRATION, index] != math.inf:
            self._expiring -= 1
        if index < n - 1:
            # one vectorized tail shift across all seven rows preserves
            # order (see the determinism contract above)
            self._data[:, index : n - 1] = self._data[:, index + 1 : n]
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
            self._columns = self._view(len(self._tasks), self._expiring == 0)
        return self._columns
