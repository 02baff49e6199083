"""The task model.

A task is a batch job (§2): it consumes one node for ``runtime`` time
units and delivers no value until it completes.  Its worth to the user is
given by a value function of its *delay* — completion time beyond the
best case ``arrival + runtime`` (Eq. 2).

Tasks carry a small state machine so the site engine, admission control,
and accounting can assert legal transitions:

    CREATED → SUBMITTED → {QUEUED | REJECTED}
    QUEUED ⇄ RUNNING (preemption returns RUNNING → QUEUED)
    RUNNING → COMPLETED
    {QUEUED, RUNNING} → CANCELLED  (expired-task discard / contract breach)
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Optional

from repro.domain import MAX_MAGNITUDE
from repro.errors import SchedulingError
from repro.valuefn.base import ValueFunction
from repro.valuefn.linear import LinearDecayValueFunction

_task_ids = itertools.count()


def reserve_task_ids(next_id: int) -> int:
    """Advance the task-id counter to at least *next_id*.

    Crash recovery reserves past a replayed journal's maximum
    ``task_tid`` so post-recovery awards don't reuse a tid already on
    the record.  Returns the new floor; never moves backwards.
    """
    global _task_ids
    current = next(_task_ids)
    floor = max(current + 1, int(next_id))
    _task_ids = itertools.count(floor)
    return floor


class TaskState(enum.Enum):
    CREATED = "created"
    SUBMITTED = "submitted"
    REJECTED = "rejected"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


# the successors of each state.  Rows are scanned by identity: a dict or
# set keyed by the enum would call Enum.__hash__ — a Python-level
# function — twice per transition, and a task makes three or four
_ALLOWED = (
    (TaskState.CREATED, (TaskState.SUBMITTED,)),
    (TaskState.SUBMITTED, (TaskState.QUEUED, TaskState.REJECTED)),
    (TaskState.QUEUED, (TaskState.RUNNING, TaskState.CANCELLED)),
    (TaskState.RUNNING, (TaskState.QUEUED, TaskState.COMPLETED, TaskState.CANCELLED)),
    (TaskState.REJECTED, ()),
    (TaskState.COMPLETED, ()),
    (TaskState.CANCELLED, ()),
)

_TERMINAL = (TaskState.REJECTED, TaskState.COMPLETED, TaskState.CANCELLED)


class Task:
    """A batch job with a value function.

    Parameters
    ----------
    arrival:
        Release time (the paper's ``arrive_i``).
    runtime:
        Minimum (and, per §4's assumptions, exact) processing time.
        Arrival, runtime and estimate are at most
        :data:`~repro.domain.MAX_MAGNITUDE`.
    vf:
        The task's value function.  The vectorized site engine requires a
        :class:`~repro.valuefn.linear.LinearDecayValueFunction`; the
        generic scheduling path accepts any
        :class:`~repro.valuefn.base.ValueFunction`.
    demand:
        Number of nodes requested (the paper's experiments use 1).
    tid:
        Stable identifier; auto-assigned when omitted.
    """

    __slots__ = (
        "tid",
        "arrival",
        "runtime",
        "estimate",
        "vf",
        "demand",
        "state",
        "remaining",
        "estimated_remaining",
        "first_start",
        "last_start",
        "completion",
        "preemptions",
        "restarts",
        "realized_yield",
        "rejected_at",
    )

    def __init__(
        self,
        arrival: float,
        runtime: float,
        vf: ValueFunction,
        demand: int = 1,
        tid: Optional[int] = None,
        estimate: Optional[float] = None,
    ) -> None:
        if not 0 <= arrival <= MAX_MAGNITUDE:
            raise SchedulingError(f"arrival must be in [0, {MAX_MAGNITUDE:g}], got {arrival!r}")
        if not 0 < runtime <= MAX_MAGNITUDE:
            raise SchedulingError(f"runtime must be in (0, {MAX_MAGNITUDE:g}], got {runtime!r}")
        if demand < 1:
            raise SchedulingError(f"demand must be >= 1, got {demand!r}")
        if estimate is not None and not 0 < estimate <= MAX_MAGNITUDE:
            raise SchedulingError(f"estimate must be in (0, {MAX_MAGNITUDE:g}], got {estimate!r}")
        self.tid = next(_task_ids) if tid is None else int(tid)
        self.arrival = float(arrival)
        self.runtime = float(runtime)
        # the user-declared service demand.  The paper's evaluation assumes
        # accurate predictions (estimate == runtime); the misestimation
        # extension lets them differ — the scheduler sees only the
        # estimate, while execution consumes the true runtime, and the
        # value function's delay is measured against the declared estimate
        # (so underestimates pay the "exceedance penalty" naturally).
        self.estimate = self.runtime if estimate is None else float(estimate)
        self.vf = vf
        self.demand = int(demand)
        self.state = TaskState.CREATED
        self.remaining = self.runtime  # true remaining work
        self.estimated_remaining = self.estimate  # the paper's RPT_i (believed)
        self.first_start: Optional[float] = None
        self.last_start: Optional[float] = None
        self.completion: Optional[float] = None
        self.preemptions = 0
        self.restarts = 0
        self.realized_yield: Optional[float] = None
        self.rejected_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Convenience accessors for the linear model (used everywhere in the
    # paper's evaluation)
    # ------------------------------------------------------------------
    @property
    def linear_vf(self) -> LinearDecayValueFunction:
        if not isinstance(self.vf, LinearDecayValueFunction):
            raise SchedulingError(
                f"task {self.tid} has a {type(self.vf).__name__}; this code path "
                "requires a LinearDecayValueFunction"
            )
        return self.vf

    @property
    def value(self) -> float:
        return self.linear_vf.value

    @property
    def decay(self) -> float:
        return self.linear_vf.decay

    @property
    def bound(self) -> float:
        """Penalty bound as a float (inf when unbounded)."""
        return self.linear_vf.bound_or_inf()

    # ------------------------------------------------------------------
    # Yield arithmetic (Eqs. 1–2)
    # ------------------------------------------------------------------
    def delay_if_completed_at(self, completion: float) -> float:
        """Delay for a given completion time: ``completion − arrival − estimate``.

        The best case is measured against the *declared* runtime: with
        accurate predictions (the paper's assumption) this is Eq. 2
        verbatim; with underestimates the overrun counts as delay, so the
        value function levies the exceedance penalty automatically.
        """
        return max(0.0, completion - self.arrival - self.estimate)

    def yield_if_completed_at(self, completion: float) -> float:
        return self.vf.yield_at(self.delay_if_completed_at(completion))

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _transition(self, to: TaskState) -> None:
        state = self.state
        for source, successors in _ALLOWED:
            if source is state:
                break
        if to not in successors:  # tuple membership tries identity first
            raise SchedulingError(
                f"task {self.tid}: illegal transition {state.value} -> {to.value}"
            )
        self.state = to

    @property
    def finished(self) -> bool:
        return self.state in _TERMINAL

    def submit(self) -> None:
        self._transition(TaskState.SUBMITTED)

    def reject(self, now: float) -> None:
        self._transition(TaskState.REJECTED)
        self.rejected_at = now

    def accept(self) -> None:
        self._transition(TaskState.QUEUED)

    def start(self, now: float) -> None:
        self._transition(TaskState.RUNNING)
        if self.first_start is None:
            self.first_start = now
        self.last_start = now

    def preempt(self, now: float) -> None:
        """Suspend the task, crediting the work done since its last start."""
        if self.last_start is None:
            raise SchedulingError(f"task {self.tid}: preempt before start")
        executed = now - self.last_start
        # the run ends at last_start + remaining (the kernel's float); at a
        # late clock, now − last_start can round past remaining
        if executed < -1e-12 or now > self.last_start + self.remaining + 1e-9:
            raise SchedulingError(
                f"task {self.tid}: executed {executed!r} out of range "
                f"[0, {self.remaining!r}]"
            )
        self._transition(TaskState.QUEUED)
        executed = max(0.0, executed)
        self.remaining = max(0.0, self.remaining - executed)
        self.estimated_remaining = max(0.0, self.estimated_remaining - executed)
        self.preemptions += 1

    def crash(self, now: float) -> None:
        """Requeue from scratch after a node crash: all progress is lost.

        Unlike :meth:`preempt`, nothing is credited — the full runtime
        and the declared estimate are restored.
        """
        if self.last_start is None:
            raise SchedulingError(f"task {self.tid}: crash before start")
        self._transition(TaskState.QUEUED)
        self.remaining = self.runtime
        self.estimated_remaining = self.estimate
        self.restarts += 1

    def complete(self, now: float) -> float:
        """Finish the task, recording and returning its realized yield."""
        self._transition(TaskState.COMPLETED)
        self.remaining = 0.0
        self.estimated_remaining = 0.0
        self.completion = now
        self.realized_yield = self.yield_if_completed_at(now)
        return self.realized_yield

    def cancel(self, now: float) -> float:
        """Abandon the task; the realized yield is the value-function floor.

        Only meaningful with bounded penalties (the site pays the bound);
        cancelling an unbounded task is a contract breach and is refused.
        """
        floor = self.vf.floor
        if math.isinf(floor):
            raise SchedulingError(
                f"task {self.tid}: cannot cancel a task with unbounded penalties"
            )
        self._transition(TaskState.CANCELLED)
        self.completion = now
        self.realized_yield = floor
        return floor

    def abort(self, now: float) -> float:
        """Abandon a task whose execution failed (live mode).

        Unlike :meth:`cancel` — the simulator's expired-task discard,
        defined only for bounded penalties — abandonment of a *failed*
        execution is defined for any value function: the client owes
        nothing for work never delivered, but any penalty accrued by the
        abandonment instant still stands.  The realized yield is
        therefore ``min(0, yield_at(delay))`` (automatically floored at
        ``−bound`` when bounded).  Simulated runs never call this; only
        the :mod:`repro.live` executor does, when a subprocess exits
        non-zero or is killed at its timeout.
        """
        self._transition(TaskState.CANCELLED)
        self.completion = now
        self.realized_yield = min(0.0, self.yield_if_completed_at(now))
        return self.realized_yield

    def __repr__(self) -> str:
        return (
            f"<Task {self.tid} {self.state.value} arr={self.arrival:g} "
            f"rt={self.runtime:g} rpt={self.remaining:g} vf={self.vf!r}>"
        )
