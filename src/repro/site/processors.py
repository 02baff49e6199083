"""Processor bookkeeping for a site.

The paper's model (§4): "processors or nodes within each grid site are
interchangeable", tasks are gang-scheduled on their full request (1 node
in every experiment), and context-switch times are negligible.  The pool
tracks which node runs which task, each node's next-free time, and
cumulative busy time for utilization reporting.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import SchedulingError
from repro.scheduling.pool import _scalars
from repro.tasks.task import Task

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.scheduling.base import PoolColumns
    from repro.scheduling.pool import PendingPool

#: Rows of the running block: the seven ``PoolColumns`` fields in field
#: order (the RPT's row holds the estimated remaining time at the last
#: start), then that start.
_EXPIRATION, _LAST_START = 6, 7
_BLOCK_ROWS = 8


class ProcessorPool:
    """Fixed set of interchangeable nodes.

    ``_task_of`` and ``_down`` are the state; ``_free``, ``_busy`` and
    ``_slots_of`` are views of it that every transition keeps current, so
    the questions asked several times per event (is a node free, which
    one, where does this task run) are answered without a scan.  So are
    the preemption pass's, from the first time it asks on (a site without
    preemption never does): the occupants in slot order (:attr:`running`,
    beside their slots), and ``_block``, per slot, the occupant's
    clock-free scalars for :meth:`union`.  A slot's column is written at
    the first union after ``assign`` put its task there (``_unfilled``
    lists the busy slots still waiting, ``_filled`` flags the written
    ones), and ``_expiring`` counts the written columns that can expire.
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
        "_running",
        "_running_slots",
        "_block",
        "_filled",
        "_unfilled",
        "_expiring",
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
        # the preemption pass's state, kept from the first ``running`` on
        # (None until then): the busy slots' occupants and the slots,
        # ascending; per slot, the occupant's clock-free union scalars and
        # whether they are written for the task that holds the slot now;
        # the busy slots whose are not; how many written ones can expire
        self._running: Optional[list[Task]] = None
        self._running_slots: list[int] = []
        self._block = np.empty((_BLOCK_ROWS, count))
        self._filled: list[bool] = [False] * count
        self._unfilled: list[int] = []
        self._expiring = 0

    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Nodes that can take work now: idle and not crashed."""
        return len(self._free)

    @property
    def busy_count(self) -> int:
        return self._busy

    @property
    def running(self) -> list[Task]:
        """The occupant of each busy slot, in slot order (a gang task once
        per slot it holds).  The pool's own list, kept current by every
        transition from the first time it is read: read it, do not edit
        it."""
        if self._running is None:
            # nothing is written before the first union, which reads this
            slots = [i for i, t in enumerate(self._task_of) if t is not None]
            self._running_slots = slots
            self._running = [self._task_of[i] for i in slots]
            self._unfilled = list(slots)
        return self._running

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
        running = self._running
        for i in slots:
            self._task_of[i] = task
            self._busy_since[i] = now
            if running is not None:
                at = bisect_left(self._running_slots, i)
                self._running_slots.insert(at, i)
                running.insert(at, task)
                self._unfilled.append(i)
        self._slots_of[task] = slots
        self._busy += demand
        return slots[0]

    def vacate(self, task: Task, now: float) -> int:
        """Remove *task* from every node it holds (completion or preemption)."""
        slots = self._slots_of.pop(task, None)
        if slots is None:
            raise SchedulingError(f"task {task.tid} is not running on any node")
        running = self._running
        for i in slots:
            self._task_of[i] = None
            self._busy_accum += now - self._busy_since[i]
            if not self._down[i]:  # a crashed node stays out until repaired
                insort(self._free, i)
            if running is not None:
                at = bisect_left(self._running_slots, i)
                del self._running_slots[at]
                del running[at]
                if self._filled[i]:
                    self._filled[i] = False
                    if self._block[_EXPIRATION, i] != math.inf:
                        self._expiring -= 1
                else:
                    self._unfilled.remove(i)
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
            if self._running is not None:
                # only idle slots went: the occupants keep their order
                self._running_slots = [
                    i for i, t in enumerate(self._task_of) if t is not None
                ]
                self._unfilled = [i for i in self._running_slots if not self._filled[i]]
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
        told.  :meth:`PendingPool.probe_running
        <repro.scheduling.pool.PendingPool.probe_running>` spells the same
        float expression over the running block; neither may be
        rearranged (``last_start + estimated_remaining`` differs in the
        last bit).

        Down nodes project ``inf`` — the site does not know the repair
        time, so candidate schedules place no work on them; when every
        node is down all starts become ``inf`` and expected yields fall
        to the floor (admission then rejects, which is the right quote
        for a site that cannot currently run anything).
        """
        times = []
        for t, d in zip(self._task_of, self._down):
            if d:
                times.append(math.inf)
            elif t is None:
                times.append(now)
            else:
                x = t.estimated_remaining - (now - t.last_start)
                # max(0.0, x) without the builtin call, -0.0 and NaN alike
                times.append(now + (x if x > 0.0 else 0.0))
        return times

    def union(self, pool: "PendingPool", now: float) -> "PoolColumns":
        """*pool*'s columns with the running tasks' rows after them, in
        slot order (:attr:`running`): the pending ∪ running view the
        preemption pass scores, in
        :class:`~repro.scheduling.base.PoolColumns` field order (arrival,
        estimate, believed RPT measured from *now*, value, decay, bound,
        expiration).

        Everything but the believed RPT is clock-free and stays in the
        block from the first union after ``assign`` until the slot changes
        hands; a running task's estimated remaining time and last start do
        not move until it leaves its node, so they are kept there too.
        The block goes to :meth:`PendingPool.probe_running
        <repro.scheduling.pool.PendingPool.probe_running>` as one slice
        when every slot is busy, as one ``take`` of the busy slots
        otherwise, with the count of its rows that can expire.
        """
        k = len(self.running)
        block = self._block
        unfilled = self._unfilled
        # the slots assigned since the last union; each leaves the list once
        # written, so a value function refused here leaves its slot listed
        while unfilled:
            i = unfilled[-1]
            t = self._task_of[i]
            # the row as the pending pool writes it, then the last start
            block[:, i] = (*_scalars(t), t.last_start)
            self._filled[i] = True
            if block[_EXPIRATION, i] != math.inf:
                self._expiring += 1
            unfilled.pop()
        if k < self.count:
            block = block.take(self._running_slots, axis=1)
        return pool.probe_running(
            block[:_LAST_START], block[_LAST_START], self._expiring, now
        )

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
