"""Restart policies: what happens to a task killed by a node crash.

The site engine vacates the crashed task's nodes and cancels its
completion event, then delegates the task's fate to a policy:

* :class:`RequeueRestart` — run again from scratch; all completed work
  is lost (the classic no-checkpoint model).
* :class:`AbandonRestart` — breach the contract: the task is cancelled
  and the site pays the value function's floor.  A task with unbounded
  penalties cannot legally be breached (an infinite payout), so abandon
  falls back to requeue-from-scratch for those.

Policies mutate only the task (via its crash transition) and report
what happened in a :class:`CrashOutcome`; ledger/stat updates stay in
the site engine where the other accounting hooks live.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.faults.spec import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tasks.task import Task


@dataclass(frozen=True)
class CrashOutcome:
    """What a restart policy did with one killed task."""

    requeued: bool  # False = contract breached (task cancelled)
    work_lost: float  # node-time of completed work thrown away
    penalty: float = 0.0  # breach penalty paid (positive magnitude)


def _progress(task: "Task", now: float) -> float:
    """Total completed work at crash time *now*.

    ``task.remaining`` is the true remaining as of the last dispatch, so
    total progress = runtime − (remaining − executed-since-start).
    """
    assert task.last_start is not None
    executed = max(0.0, now - task.last_start)
    return max(0.0, task.runtime - max(0.0, task.remaining - executed))


class RestartPolicy(abc.ABC):
    """Decides the fate of a task whose node crashed mid-run."""

    name: str = "restart"

    @abc.abstractmethod
    def on_crash(self, task: "Task", now: float) -> CrashOutcome:
        """Apply the policy to *task* (currently RUNNING) at time *now*."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class RequeueRestart(RestartPolicy):
    """Re-run from scratch: the crash destroys all completed work."""

    name = "requeue"

    def on_crash(self, task: "Task", now: float) -> CrashOutcome:
        done = _progress(task, now)
        task.crash(now)
        return CrashOutcome(requeued=True, work_lost=done)


class AbandonRestart(RestartPolicy):
    """Breach the contract: cancel the task and pay the penalty floor.

    Unbounded-penalty tasks cannot be breached (the floor is −inf), so
    they fall back to requeue-from-scratch instead.
    """

    name = "abandon"

    def __init__(self) -> None:
        self._fallback = RequeueRestart()

    def on_crash(self, task: "Task", now: float) -> CrashOutcome:
        if math.isinf(task.vf.floor):
            return self._fallback.on_crash(task, now)
        done = _progress(task, now)
        floor = task.cancel(now)
        return CrashOutcome(requeued=False, work_lost=done, penalty=max(0.0, -floor))


def make_restart_policy(spec: FaultSpec) -> RestartPolicy:
    """Build the restart policy a :class:`FaultSpec` names."""
    return {"requeue": RequeueRestart, "abandon": AbandonRestart}[spec.restart]()
