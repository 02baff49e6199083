"""Generic scheduling for arbitrary value functions (§3's generalization).

The vectorized engine requires linear value functions — the model the
paper evaluates.  This module is the documented extension path: the same
heuristics defined against the abstract
:class:`~repro.valuefn.base.ValueFunction` interface, scored per task in
Python, plus a :class:`GenericTaskService` that runs them on the
simulation kernel.  Intended for moderate queue sizes (scores are
O(n) per task, O(n²) per scheduling pass for FirstReward).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import SchedulingError
from repro.sim.kernel import Simulator
from repro.site.accounting import YieldLedger
from repro.site.processors import ProcessorPool
from repro.tasks.task import Task

_MIN_REMAINING = 1e-9


def task_delay_now(task: Task, now: float) -> float:
    """Eq. 2 for a single task: delay if its believed remaining work
    started right now."""
    return max(0.0, now + task.estimated_remaining - task.arrival - task.estimate)


class GenericFirstReward:
    """Eq. 6 with the opportunity cost (Eq. 4) read off each competitor's
    value function: ``d_j`` is the *instantaneous* decay at j's current
    delay and the horizon is ``remaining_decay_horizon`` — so grace
    periods, variable rates, and penalty caps all participate.

    FirstPrice and PresentValue are this score at ``(1, 0)`` and
    ``(1, r)`` (:class:`GenericFirstPrice`, :class:`GenericPresentValue`):
    at ``α = 1`` the cost is ``0.0``, and ``1.0 · x − 0.0`` and
    ``x / 1.0`` are ``x``.
    """

    name = "generic-firstreward"

    def __init__(self, alpha: float = 0.3, discount_rate: float = 0.01) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise SchedulingError(f"alpha must be in [0, 1], got {alpha!r}")
        if not discount_rate >= 0:
            raise SchedulingError(f"discount_rate must be >= 0, got {discount_rate!r}")
        self.alpha = float(alpha)
        self.discount_rate = float(discount_rate)

    def scores(self, tasks: Sequence[Task], now: float) -> list[float]:
        """The score of every task of *tasks*, each among all of them.

        Each competitor's value function is read once per pass: its
        delay, and where the cost is needed its ``d_j`` and horizon.
        """
        alpha, rate = self.alpha, self.discount_rate
        delays = [task_delay_now(task, now) for task in tasks]
        # at α = 1 nothing is read for a cost, and the cost stays 0.0
        terms = []
        if alpha < 1.0:
            for other, delay in zip(tasks, delays):
                d = other.vf.decay_at(delay)
                # the horizon is only consulted when d > 0
                terms.append((d, other.vf.remaining_decay_horizon(delay) if d > 0.0 else 0.0))
        scores = []
        for task, delay in zip(tasks, delays):
            rpt = max(task.estimated_remaining, _MIN_REMAINING)
            pv = task.vf.yield_at(delay) / (1.0 + rate * rpt)
            cost = 0.0
            for other, (d, horizon) in zip(tasks, terms):
                if other is task or d <= 0.0:
                    continue
                cost += d * min(rpt, horizon)
            scores.append((alpha * pv - (1.0 - alpha) * cost) / rpt)
        return scores

    def best_index(self, tasks: Sequence[Task], now: float) -> int:
        """Index of the highest-scored task (the first of a tie)."""
        if not tasks:
            raise SchedulingError("no tasks to score")
        scores = self.scores(tasks, now)
        return max(range(len(tasks)), key=scores.__getitem__)


class GenericFirstPrice(GenericFirstReward):
    """Unit gain ``yield_i(now)/RPT_i``: FirstReward at ``(1, 0)``."""

    name = "generic-firstprice"

    def __init__(self) -> None:
        super().__init__(1.0, 0.0)


class GenericPresentValue(GenericFirstReward):
    """Discounted unit gain (Eq. 3): FirstReward at ``(1, r)``."""

    name = "generic-pv"

    def __init__(self, discount_rate: float = 0.01) -> None:
        super().__init__(1.0, discount_rate)


class GenericTaskService:
    """A non-preemptive task service accepting any value-function model.

    Mirrors :class:`~repro.site.service.TaskServiceSite`'s submit/dispatch
    /complete cycle and shares its :class:`YieldLedger` accounting, but
    scores tasks one at a time through the abstract interface.  It stays
    its own small service because the engine's ``PendingPool`` reads
    ``task.linear_vf`` into its columns.  Single-node tasks only.
    """

    def __init__(
        self,
        sim: Simulator,
        processors: int,
        heuristic: GenericFirstReward,
        site_id: str = "generic-site",
        ledger: Optional[YieldLedger] = None,
    ) -> None:
        self.sim = sim
        self.site_id = site_id
        self.heuristic = heuristic
        self.processors = ProcessorPool(processors)
        self.pending: list[Task] = []
        self.ledger = ledger if ledger is not None else YieldLedger()

    def submit(self, task: Task) -> None:
        now = self.sim.now
        if task.arrival > now + 1e-9:
            raise SchedulingError(
                f"task {task.tid} submitted at {now} before its arrival {task.arrival}"
            )
        if task.demand > 1:
            raise SchedulingError(
                f"task {task.tid} needs {task.demand} nodes; the generic task "
                "service is single-node (gang tasks run on TaskServiceSite)"
            )
        task.submit()
        self.ledger.note_submission(task, now)
        task.accept()
        self.ledger.note_accept(task)
        self.pending.append(task)
        self._dispatch()

    def _dispatch(self) -> None:
        now = self.sim.now
        while self.pending and self.processors.free_count > 0:
            index = self.heuristic.best_index(self.pending, now)
            task = self.pending.pop(index)
            task.start(now)
            self.processors.assign(task, now)
            self.sim.schedule_at(
                now + task.remaining,
                self._on_completion,
                task,
                tag=f"{self.site_id}:complete:{task.tid}",
            )

    def _on_completion(self, task: Task) -> None:
        now = self.sim.now
        self.processors.vacate(task, now)
        task.complete(now)
        self.ledger.note_completion(task)
        self._dispatch()

    def all_work_done(self) -> bool:
        return not self.pending and self.processors.busy_count == 0


def simulate_generic(
    tasks: Sequence[Task],
    heuristic: GenericFirstReward,
    processors: int,
) -> YieldLedger:
    """Run *tasks* (any value-function model) to completion; returns the ledger."""
    sim = Simulator()
    service = GenericTaskService(sim, processors, heuristic)
    for task in tasks:
        sim.schedule_at(task.arrival, service.submit, task)
    sim.run()
    if not service.all_work_done():
        raise SchedulingError("generic service drained with work outstanding")
    return service.ledger
