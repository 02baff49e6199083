"""Processor bookkeeping for a site.

The paper's model (§4): "processors or nodes within each grid site are
interchangeable", tasks are gang-scheduled on their full request (1 node
in every experiment), and context-switch times are negligible.  The pool
tracks which node runs which task, each node's next-free time, and
cumulative busy time for utilization reporting.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import SchedulingError
from repro.tasks.task import Task


class ProcessorPool:
    """Fixed set of interchangeable nodes."""

    __slots__ = (
        "count",
        "_task_of",
        "_busy_since",
        "_busy_accum",
        "_node_ids",
        "_next_node_id",
        "_down",
    )

    def __init__(self, count: int) -> None:
        if count < 1:
            raise SchedulingError(f"processor count must be >= 1, got {count}")
        self.count = count
        self._task_of: list[Optional[Task]] = [None] * count
        self._busy_since: list[float] = [0.0] * count
        self._busy_accum = 0.0
        # stable node identities: slots shift when an elastic pool
        # shrinks, so observers must key on these, not positions
        self._node_ids: list[int] = list(range(count))
        self._next_node_id = count
        # crashed nodes: down slots hold no task and take no assignments
        # until repaired (repro.faults drives the transitions)
        self._down: list[bool] = [False] * count

    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Nodes that can take work now: idle and not crashed."""
        return sum(1 for t, d in zip(self._task_of, self._down) if t is None and not d)

    @property
    def busy_count(self) -> int:
        return sum(1 for t in self._task_of if t is not None)

    @property
    def down_count(self) -> int:
        """Nodes currently crashed (idle but unassignable)."""
        return sum(self._down)

    @property
    def running_tasks(self) -> list[Task]:
        return [t for t in self._task_of if t is not None]

    def slot_of(self, task: Task) -> int:
        for i, t in enumerate(self._task_of):
            if t is task:
                return i
        raise SchedulingError(f"task {task.tid} is not running on any node")

    def slots_of(self, task: Task) -> list[int]:
        """All slots held by *task* (gang-scheduled tasks hold several)."""
        slots = [i for i, t in enumerate(self._task_of) if t is task]
        if not slots:
            raise SchedulingError(f"task {task.tid} is not running on any node")
        return slots

    def node_id_of(self, task: Task) -> int:
        """Stable identity of the (first) node running *task* (survives shrink)."""
        return self._node_ids[self.slot_of(task)]

    def node_ids_of(self, task: Task) -> list[int]:
        """Stable identities of every node in *task*'s gang."""
        return [self._node_ids[i] for i in self.slots_of(task)]

    # ------------------------------------------------------------------
    def assign(self, task: Task, now: float) -> int:
        """Gang-schedule *task* on ``task.demand`` free nodes (§4: "jobs
        are always gang-scheduled ... with the requested number of
        processors").  Returns the first slot index."""
        free = [
            i
            for i, (t, d) in enumerate(zip(self._task_of, self._down))
            if t is None and not d
        ]
        if len(free) < task.demand:
            raise SchedulingError(
                f"task {task.tid} needs {task.demand} nodes, only {len(free)} free"
            )
        for i in free[: task.demand]:
            self._task_of[i] = task
            self._busy_since[i] = now
        return free[0]

    def vacate(self, task: Task, now: float) -> int:
        """Remove *task* from every node it holds (completion or preemption)."""
        slots = self.slots_of(task)
        for i in slots:
            self._task_of[i] = None
            self._busy_accum += now - self._busy_since[i]
        return slots[0]

    # ------------------------------------------------------------------
    # Elastic capacity (the §7 resource-market direction): a site leasing
    # nodes from a resource provider grows and shrinks its pool.
    # ------------------------------------------------------------------
    def grow(self, count: int) -> None:
        """Add *count* idle nodes."""
        if count < 0:
            raise SchedulingError(f"grow count must be >= 0, got {count}")
        self._task_of.extend([None] * count)
        self._busy_since.extend([0.0] * count)
        self._node_ids.extend(
            range(self._next_node_id, self._next_node_id + count)
        )
        self._next_node_id += count
        self._down.extend([False] * count)
        self.count += count

    def shrink_idle(self, count: int) -> int:
        """Remove up to *count* idle nodes; returns how many were removed.

        Busy nodes are never revoked — a lessor wanting them back must
        wait for (or preempt) the running work first.  At least one node
        always remains.
        """
        if count < 0:
            raise SchedulingError(f"shrink count must be >= 0, got {count}")
        removed = 0
        i = len(self._task_of) - 1
        while removed < count and i >= 0 and self.count - removed > 1:
            # crashed nodes are not revocable either: their lease is
            # pinned until the repair lands (the fault injector tracks
            # them by identity)
            if self._task_of[i] is None and not self._down[i]:
                del self._task_of[i]
                del self._busy_since[i]
                del self._node_ids[i]
                del self._down[i]
                removed += 1
            i -= 1
        self.count -= removed
        return removed

    # ------------------------------------------------------------------
    # Node failure / repair (the repro.faults reliability subsystem)
    # ------------------------------------------------------------------
    def _slot_of_node(self, node_id: int) -> Optional[int]:
        try:
            return self._node_ids.index(node_id)
        except ValueError:
            return None  # node was shrunk away since the injector started

    def is_down(self, node_id: int) -> bool:
        slot = self._slot_of_node(node_id)
        return slot is not None and self._down[slot]

    def down_node_ids(self) -> list[int]:
        return [nid for nid, d in zip(self._node_ids, self._down) if d]

    def fail(self, node_id: int) -> Optional[Task]:
        """Mark node *node_id* down; returns the task it was running.

        The occupant (if any) is *not* vacated — the site engine owns
        the task lifecycle (cancel its completion event, vacate the full
        gang, apply the restart policy).  Failing an unknown or
        already-down node is a no-op returning ``None`` so injectors can
        race elastic shrink and duplicated crash signals harmlessly.
        """
        slot = self._slot_of_node(node_id)
        if slot is None or self._down[slot]:
            return None
        self._down[slot] = True
        return self._task_of[slot]

    def repair(self, node_id: int) -> bool:
        """Bring node *node_id* back up; True when a down node flipped."""
        slot = self._slot_of_node(node_id)
        if slot is None or not self._down[slot]:
            return False
        self._down[slot] = False
        return True

    # ------------------------------------------------------------------
    @staticmethod
    def _believed_remaining(task: Task, now: float) -> float:
        """The scheduler's estimate of a running task's remaining time.

        Derived from the declared estimate, not the true completion —
        with accurate predictions they coincide; under runtime
        misestimation the engine must plan on what it was told.
        """
        assert task.last_start is not None
        return max(0.0, task.estimated_remaining - (now - task.last_start))

    def free_times(self, now: float) -> list[float]:
        """Per-node next-free time as the scheduler believes it: *now*
        for idle nodes, now + the running task's estimated remaining time
        otherwise.  Seed state of every candidate-schedule projection.

        Down nodes project ``inf`` — the site does not know the repair
        time, so candidate schedules place no work on them; when every
        node is down all starts become ``inf`` and expected yields fall
        to the floor (admission then rejects, which is the right quote
        for a site that cannot currently run anything).
        """
        return [
            math.inf
            if d
            else (now if t is None else now + self._believed_remaining(t, now))
            for t, d in zip(self._task_of, self._down)
        ]

    def running_rows(self, now: float) -> tuple[list[Task], np.ndarray]:
        """The running tasks in slot order (one entry per busy node) and
        their scheduler-visible scalars as one ``(6, k)`` block in
        :class:`~repro.scheduling.base.PoolColumns` field order: arrival,
        estimate, believed RPT measured from *now*, value, decay, bound.

        What :meth:`PendingPool.probe_block
        <repro.scheduling.pool.PendingPool.probe_block>` takes to put
        pending and running tasks in one scoring space.
        """
        tasks: list[Task] = []
        rows: list[tuple[float, ...]] = []
        for t in self._task_of:
            if t is None:
                continue
            vf = t.linear_vf
            tasks.append(t)
            rows.append(
                (
                    t.arrival,
                    t.estimate,
                    self._believed_remaining(t, now),
                    vf.value,
                    vf.decay,
                    vf.bound_or_inf(),
                )
            )
        return tasks, np.array(rows).reshape(-1, 6).T

    def utilization(self, now: float) -> float:
        """Fraction of node-time spent busy over [0, now]."""
        horizon = now * self.count
        if horizon <= 0:
            return 0.0
        busy = self._busy_accum + sum(
            now - s
            for t, s in zip(self._task_of, self._busy_since)
            if t is not None
        )
        return min(1.0, busy / horizon)
