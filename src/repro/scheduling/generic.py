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

import abc
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


def task_yield_now(task: Task, now: float) -> float:
    """Expected yield if started now, via the task's own value function."""
    return task.vf.yield_at(task_delay_now(task, now))


class GenericHeuristic(abc.ABC):
    """Per-task scoring against the abstract value-function interface."""

    name = "generic"

    def __init__(self) -> None:
        #: reusable scratch buffer for per-pass scores — ``best_index``
        #: is called once per dispatch, so a fresh list per call is pure
        #: allocator churn
        self._scores: list[float] = []

    @abc.abstractmethod
    def score(self, task: Task, competitors: Sequence[Task], now: float) -> float:
        """Priority of *task* among *competitors* (which include it)."""

    def begin_pass(self, tasks: Sequence[Task], now: float) -> None:
        """Hook: precompute per-competitor state for one scoring pass.

        Called by :meth:`best_index` before scoring; subclasses with
        competitor-dependent terms override it to hoist per-competitor
        work out of the O(n²) score loop.  Scores must be identical with
        or without the hook — it is a caching point, not a semantic one.
        """

    def end_pass(self) -> None:
        """Hook: drop per-pass state (see :meth:`begin_pass`)."""

    def best_index(self, tasks: Sequence[Task], now: float) -> int:
        if not tasks:
            raise SchedulingError("no tasks to score")
        scores = self._scores
        scores.clear()
        self.begin_pass(tasks, now)
        try:
            scores.extend(self.score(t, tasks, now) for t in tasks)
        finally:
            self.end_pass()
        return max(range(len(tasks)), key=scores.__getitem__)


class GenericFirstPrice(GenericHeuristic):
    """Unit gain ``yield_i(now)/RPT_i`` for any value-function model."""

    name = "generic-firstprice"

    def score(self, task: Task, competitors: Sequence[Task], now: float) -> float:
        return task_yield_now(task, now) / max(task.estimated_remaining, _MIN_REMAINING)


class GenericPresentValue(GenericHeuristic):
    """Discounted unit gain (Eq. 3) for any value-function model."""

    name = "generic-pv"

    def __init__(self, discount_rate: float = 0.01) -> None:
        super().__init__()
        if not discount_rate >= 0:
            raise SchedulingError(f"discount_rate must be >= 0, got {discount_rate!r}")
        self.discount_rate = float(discount_rate)

    def score(self, task: Task, competitors: Sequence[Task], now: float) -> float:
        rpt = max(task.estimated_remaining, _MIN_REMAINING)
        pv = task_yield_now(task, now) / (1.0 + self.discount_rate * rpt)
        return pv / rpt


class GenericFirstReward(GenericHeuristic):
    """Eq. 6 with the opportunity cost (Eq. 4) read off each competitor's
    value function: ``d_j`` is the *instantaneous* decay at j's current
    delay and the horizon is ``remaining_decay_horizon`` — so grace
    periods, variable rates, and penalty caps all participate."""

    name = "generic-firstreward"

    def __init__(self, alpha: float = 0.3, discount_rate: float = 0.01) -> None:
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise SchedulingError(f"alpha must be in [0, 1], got {alpha!r}")
        if not discount_rate >= 0:
            raise SchedulingError(f"discount_rate must be >= 0, got {discount_rate!r}")
        self.alpha = float(alpha)
        self.discount_rate = float(discount_rate)
        #: per-pass cache: (competitors list identity, [(d_j, horizon_j)]).
        #: d_j and horizon_j depend only on (task_j, now), so one pass can
        #: read each competitor's value function O(n) times total instead
        #: of O(n²) — same numbers, same accumulation order.
        self._pass_key: Optional[tuple[int, float]] = None
        self._pass_terms: list[tuple[float, float]] = []

    def begin_pass(self, tasks: Sequence[Task], now: float) -> None:
        if self.alpha >= 1.0:
            return
        terms = self._pass_terms
        terms.clear()
        for other in tasks:
            delay = task_delay_now(other, now)
            d = other.vf.decay_at(delay)
            # the horizon is only consulted when d > 0 (matching the
            # uncached loop, which skips before reading it)
            horizon = other.vf.remaining_decay_horizon(delay) if d > 0.0 else 0.0
            terms.append((d, horizon))
        self._pass_key = (id(tasks), now)

    def end_pass(self) -> None:
        self._pass_key = None
        self._pass_terms.clear()

    def score(self, task: Task, competitors: Sequence[Task], now: float) -> float:
        rpt = max(task.estimated_remaining, _MIN_REMAINING)
        pv = task_yield_now(task, now) / (1.0 + self.discount_rate * rpt)
        cost = 0.0
        if self.alpha < 1.0:
            if self._pass_key == (id(competitors), now):
                for other, (d, horizon) in zip(competitors, self._pass_terms):
                    if other is task or d <= 0.0:
                        continue
                    cost += d * min(rpt, horizon)
            else:  # standalone call outside a best_index pass
                for other in competitors:
                    if other is task:
                        continue
                    delay = task_delay_now(other, now)
                    d = other.vf.decay_at(delay)
                    if d <= 0.0:
                        continue
                    horizon = other.vf.remaining_decay_horizon(delay)
                    cost += d * min(rpt, horizon)
        return (self.alpha * pv - (1.0 - self.alpha) * cost) / rpt


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
        heuristic: GenericHeuristic,
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
    heuristic: GenericHeuristic,
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
