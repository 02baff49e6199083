"""Processor bookkeeping for a site.

The paper's model (§4): "processors or nodes within each grid site are
interchangeable", tasks are gang-scheduled on their full request (1 node
in every experiment), and context-switch times are negligible.  The pool
tracks which node runs which task, each node's next-free time, and
cumulative busy time for utilization reporting.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Optional

import numpy as np

from repro.errors import SchedulingError
from repro.tasks.task import Task

#: Rows of the running block: the seven ``PoolColumns`` fields in field
#: order (the RPT's row holds the estimated remaining time at the last
#: start), then that start.
_REMAINING, _LAST_START = 2, 7
_BLOCK_ROWS = 8


class ProcessorPool:
    """Fixed set of interchangeable nodes.

    ``_task_of`` and ``_down`` are the state; ``_free``, ``_busy`` and
    ``_slots_of`` are views of it that every transition keeps current, so
    the questions asked several times per event (is a node free, which
    one, where does this task run) are answered without a scan.
    ``_block`` holds, per slot, the occupant's clock-free scalars for
    :meth:`running_rows`, written at the first pass after ``assign`` put
    it there (``_filled``).
    """

    __slots__ = (
        "count",
        "_task_of",
        "_busy_since",
        "_busy_accum",
        "_node_ids",
        "_next_node_id",
        "_down",
        "_free",
        "_busy",
        "_slots_of",
        "_block",
        "_filled",
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
        # idle-and-up slots, ascending: assign takes the lowest, and slot
        # order is what breaks preemption ties and names node_ids_of
        self._free: list[int] = list(range(count))
        self._busy = 0  # slots holding a task
        self._slots_of: dict[Task, list[int]] = {}  # by identity; ascending
        # per slot, the occupant's clock-free running_rows scalars, and
        # whether they are written for the task that holds the slot now
        self._block = np.empty((_BLOCK_ROWS, count))
        self._filled: list[bool] = [False] * count

    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Nodes that can take work now: idle and not crashed."""
        return len(self._free)

    @property
    def busy_count(self) -> int:
        return self._busy

    @property
    def running_tasks(self) -> list[Task]:
        return [t for t in self._task_of if t is not None]

    def slots_of(self, task: Task) -> list[int]:
        """All slots held by *task* (gang-scheduled tasks hold several)."""
        slots = self._slots_of.get(task)
        if slots is None:
            raise SchedulingError(f"task {task.tid} is not running on any node")
        return list(slots)

    def node_ids_of(self, task: Task) -> list[int]:
        """Stable identities of every node in *task*'s gang (survive shrink)."""
        return [self._node_ids[i] for i in self.slots_of(task)]

    # ------------------------------------------------------------------
    def assign(self, task: Task, now: float) -> int:
        """Gang-schedule *task* on ``task.demand`` free nodes (§4: "jobs
        are always gang-scheduled ... with the requested number of
        processors").  Returns the first slot index."""
        if task in self._slots_of:
            raise SchedulingError(
                f"task {task.tid} is already running on node(s) "
                f"{self.node_ids_of(task)}"
            )
        free = self._free
        demand = task.demand
        if len(free) < demand:
            raise SchedulingError(
                f"task {task.tid} needs {demand} nodes, only {len(free)} free"
            )
        slots = free[:demand]
        del free[:demand]
        for i in slots:
            self._task_of[i] = task
            self._busy_since[i] = now
            self._filled[i] = False
        self._slots_of[task] = slots
        self._busy += demand
        return slots[0]

    def vacate(self, task: Task, now: float) -> int:
        """Remove *task* from every node it holds (completion or preemption)."""
        slots = self._slots_of.pop(task, None)
        if slots is None:
            raise SchedulingError(f"task {task.tid} is not running on any node")
        for i in slots:
            self._task_of[i] = None
            self._busy_accum += now - self._busy_since[i]
            if not self._down[i]:  # a crashed node stays out until repaired
                insort(self._free, i)
        self._busy -= len(slots)
        return slots[0]

    # ------------------------------------------------------------------
    # Elastic capacity (the §7 resource-market direction): a site leasing
    # nodes from a resource provider grows and shrinks its pool.
    # ------------------------------------------------------------------
    def grow(self, count: int) -> None:
        """Add *count* idle nodes."""
        if count < 0:
            raise SchedulingError(f"grow count must be >= 0, got {count}")
        self._free.extend(range(self.count, self.count + count))
        self._task_of.extend([None] * count)
        self._block = np.concatenate([self._block, np.empty((_BLOCK_ROWS, count))], axis=1)
        self._filled.extend([False] * count)
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
        removed: list[int] = []
        i = len(self._task_of) - 1
        while len(removed) < count and i >= 0 and self.count - len(removed) > 1:
            # crashed nodes are not revocable either: their lease is
            # pinned until the repair lands (the fault injector tracks
            # them by identity)
            if self._task_of[i] is None and not self._down[i]:
                del self._task_of[i]
                del self._filled[i]
                del self._busy_since[i]
                del self._node_ids[i]
                del self._down[i]
                removed.append(i)
            i -= 1
        self.count -= len(removed)
        if removed:
            self._block = np.delete(self._block, removed, axis=1)
            # the slots above each removed one shifted down
            self._free = [
                i
                for i, (t, d) in enumerate(zip(self._task_of, self._down))
                if t is None and not d
            ]
            self._slots_of = {}
            for i, t in enumerate(self._task_of):
                if t is not None:
                    self._slots_of.setdefault(t, []).append(i)
        return len(removed)

    # ------------------------------------------------------------------
    # Node failure / repair (the repro.faults reliability subsystem)
    # ------------------------------------------------------------------
    def _slot_of_node(self, node_id: int) -> Optional[int]:
        try:
            return self._node_ids.index(node_id)
        except ValueError:
            return None  # node was shrunk away since the injector started

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
        victim = self._task_of[slot]
        if victim is None:
            self._free.remove(slot)
        return victim

    def repair(self, node_id: int) -> bool:
        """Bring node *node_id* back up; True when a down node flipped."""
        slot = self._slot_of_node(node_id)
        if slot is None or not self._down[slot]:
            return False
        self._down[slot] = False
        if self._task_of[slot] is None:
            insort(self._free, slot)
        return True

    # ------------------------------------------------------------------
    def free_times(self, now: float) -> list[float]:
        """Per-node next-free time as the scheduler believes it: *now*
        for idle nodes, now + the running task's estimated remaining time
        otherwise.  Seed state of every candidate-schedule projection.

        The believed remaining time is ``max(0, estimated_remaining −
        (now − last_start))``: derived from the declared estimate, not
        the true completion — with accurate predictions they coincide;
        under runtime misestimation the engine must plan on what it was
        told.  :meth:`running_rows` spells the same float expression over
        a block; neither may be rearranged (``last_start +
        estimated_remaining`` differs in the last bit).

        Down nodes project ``inf`` — the site does not know the repair
        time, so candidate schedules place no work on them; when every
        node is down all starts become ``inf`` and expected yields fall
        to the floor (admission then rejects, which is the right quote
        for a site that cannot currently run anything).
        """
        return [
            math.inf
            if d
            else (
                now
                if t is None
                else now + max(0.0, t.estimated_remaining - (now - t.last_start))
            )
            for t, d in zip(self._task_of, self._down)
        ]

    def running_rows(self, now: float) -> tuple[list[Task], np.ndarray]:
        """The running tasks in slot order (one entry per busy node) and
        their scheduler-visible scalars as one ``(7, k)`` block in
        :class:`~repro.scheduling.base.PoolColumns` field order: arrival,
        estimate, believed RPT measured from *now*, value, decay, bound,
        expiration.

        What :meth:`PendingPool.probe_block
        <repro.scheduling.pool.PendingPool.probe_block>` takes to put
        pending and running tasks in one scoring space.  Everything but
        the believed RPT is clock-free and stays in the pool's block from
        the first pass after ``assign`` until the slot changes hands; a
        running task's estimated remaining time and last start do not
        move until it leaves its node, so they are kept there too.
        """
        block = self._block
        filled = self._filled
        tasks: list[Task] = []
        slots: list[int] = []
        for i, t in enumerate(self._task_of):
            if t is None:
                continue
            if not filled[i]:  # first pass since assign put t here
                vf = t.linear_vf
                value, decay, bound = vf.value, vf.decay, vf.bound_or_inf()
                block[:, i] = (
                    t.arrival,
                    t.estimate,
                    t.estimated_remaining,
                    value,
                    decay,
                    bound,
                    # the scalar twin of expiration_delays, as the
                    # pending pool writes it
                    (value + bound) / decay if decay > 0.0 else 0.0,
                    t.last_start,
                )
                filled[i] = True
            tasks.append(t)
            slots.append(i)
        rows = block[:, slots]
        believed = rows[_REMAINING]
        np.maximum(0.0, believed - (now - rows[_LAST_START]), out=believed)
        return tasks, rows[:_LAST_START]

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
