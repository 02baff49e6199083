"""Yield accounting: the ledger of every task outcome at a site.

The experiment harness reads all paper metrics from here: aggregate
yield, the *average yield rate* over the active interval (Fig. 6's
y-axis), acceptance/rejection counts, delays, preemption counts, and
penalties paid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.tasks.task import Task


@dataclass(frozen=True)
class TaskRecord:
    """Immutable outcome row, one per finished task."""

    tid: int
    arrival: float
    runtime: float
    value: float
    decay: float
    outcome: str  # completed | cancelled | rejected
    completion: Optional[float]
    delay: Optional[float]
    realized_yield: float
    preemptions: int
    restarts: int = 0  # crash-driven requeues survived


@dataclass
class YieldLedger:
    """Aggregates and per-task records for one site run."""

    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    completed: int = 0
    cancelled: int = 0
    preemptions: int = 0
    crashes: int = 0  # running tasks killed by node failures
    restarts: int = 0  # killed tasks put back in the queue
    breaches: int = 0  # killed tasks abandoned (contract breached)
    breach_penalties: float = 0.0  # penalties paid on those breaches
    total_yield: float = 0.0
    first_arrival: Optional[float] = None
    last_completion: Optional[float] = None
    records: list[TaskRecord] = field(default_factory=list)
    keep_records: bool = True

    # ------------------------------------------------------------------
    # Event hooks (called by the site engine)
    # ------------------------------------------------------------------
    def note_submission(self, task: Task, now: float) -> None:
        self.submitted += 1
        if self.first_arrival is None or task.arrival < self.first_arrival:
            self.first_arrival = task.arrival

    def note_accept(self, task: Task) -> None:
        self.accepted += 1

    def note_reject(self, task: Task, now: float) -> None:
        self.rejected += 1
        self._record(task, "rejected", completion=None, delay=None, realized=0.0)

    def note_preempt(self, task: Task) -> None:
        self.preemptions += 1

    def note_crash(self, task: Task) -> None:
        """A node failure killed *task* mid-run."""
        self.crashes += 1

    def note_restart(self, task: Task) -> None:
        """A killed task went back to the queue (requeued from scratch)."""
        self.restarts += 1

    def note_breach(self, task: Task, penalty: float) -> None:
        """A killed task was abandoned: the contract is breached and the
        value-function floor is realized (the *task* is already
        CANCELLED); *penalty* is the positive magnitude paid."""
        self.breaches += 1
        self.breach_penalties += penalty
        self.note_cancel(task)

    def note_completion(self, task: Task) -> None:
        assert task.realized_yield is not None and task.completion is not None
        self.completed += 1
        self.total_yield += task.realized_yield
        self._note_end(task.completion)
        self._record(
            task,
            "completed",
            # delay relative to the declared estimate — the base the value
            # function (and hence the price) is measured against
            completion=task.completion,
            delay=task.completion - task.arrival - task.estimate,
            realized=task.realized_yield,
        )

    def note_cancel(self, task: Task) -> None:
        assert task.realized_yield is not None and task.completion is not None
        self.cancelled += 1
        self.total_yield += task.realized_yield
        self._note_end(task.completion)
        self._record(
            task,
            "cancelled",
            completion=task.completion,
            delay=None,
            realized=task.realized_yield,
        )

    def _note_end(self, time: float) -> None:
        if self.last_completion is None or time > self.last_completion:
            self.last_completion = time

    def _record(self, task, outcome, completion, delay, realized) -> None:
        if not self.keep_records:
            return
        self.records.append(
            TaskRecord(
                tid=task.tid,
                arrival=task.arrival,
                runtime=task.runtime,
                # generic accessors so non-linear value functions (the §3
                # extension) can flow through the same ledger
                value=task.vf.max_value,
                decay=task.vf.decay_at(0.0),
                outcome=outcome,
                completion=completion,
                delay=delay,
                realized_yield=realized,
                preemptions=task.preemptions,
                restarts=task.restarts,
            )
        )

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def active_interval(self) -> float:
        """First arrival to last completion — the span Fig. 6 averages over."""
        if self.first_arrival is None or self.last_completion is None:
            return 0.0
        return max(0.0, self.last_completion - self.first_arrival)

    @property
    def yield_rate(self) -> float:
        """Average yield per unit time over the active interval (Fig. 6)."""
        interval = self.active_interval
        if interval <= 0:
            return 0.0
        return self.total_yield / interval

    @property
    def penalties_paid(self) -> float:
        """Sum of negative realized yields (as a positive number)."""
        return -sum(r.realized_yield for r in self.records if r.realized_yield < 0)

    @property
    def value_earned(self) -> float:
        """Sum of positive realized yields."""
        return sum(r.realized_yield for r in self.records if r.realized_yield > 0)

    @property
    def mean_delay(self) -> float:
        delays = [r.delay for r in self.records if r.delay is not None]
        return sum(delays) / len(delays) if delays else 0.0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.submitted if self.submitted else 0.0

    @property
    def max_possible_value(self) -> float:
        """Σ max value over *finished* tasks — an upper bound on yield."""
        return sum(r.value for r in self.records)

    def summary(self) -> dict:
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "preemptions": self.preemptions,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "breaches": self.breaches,
            "breach_penalties": self.breach_penalties,
            "total_yield": self.total_yield,
            "yield_rate": self.yield_rate,
            "active_interval": self.active_interval,
            "mean_delay": self.mean_delay,
            "penalties_paid": self.penalties_paid,
            "acceptance_rate": self.acceptance_rate,
        }
