"""A live task-service site: a ``MarketSite`` on the wall clock.

There is one site implementation.  Quoting, award, dispatch, exit
handling and settlement are :class:`~repro.market.sites.MarketSite` over
:class:`~repro.site.service.TaskServiceSite`, unchanged; a live site is
that class built with the service's clock, an executor that runs a
started task as a child process instead of a completion event, and the
restart policy below.  What this module adds is only what has no
simulated meaning: the failure budget of real subprocesses and forced
abandonment at shutdown.
"""

from __future__ import annotations

import math

from repro.faults.restart import CrashOutcome, RequeueRestart
from repro.live.config import LiveSiteSpec
from repro.market.sites import MarketSite
from repro.scheduling.firstreward import FirstReward
from repro.sim.clock import Clock
from repro.site.admission import SlackAdmission
from repro.tasks.task import Task

#: Every live site schedules by FirstReward(ALPHA, DISCOUNT_RATE), and
#: its slack admission discounts expected gains at DISCOUNT_RATE.
ALPHA = 0.3
DISCOUNT_RATE = 0.01
#: Failed-run requeues before a contract is breached.
MAX_RESTARTS = 1


def _breach(task: Task, now: float) -> float:
    """Abandon *task* for good; returns the penalty paid (>= 0).

    At the value-function floor when bounded (``Task.cancel``, the
    simulator's breach); otherwise ``Task.abort`` — a live-only outcome,
    subprocesses can die in ways the simulator's unbounded tasks never
    do: the client owes nothing, the penalty accrued so far stands.
    """
    realized = task.cancel(now) if math.isfinite(task.vf.floor) else task.abort(now)
    return max(0.0, -realized)


class BudgetedRestart(RequeueRestart):
    """Requeue a failed run from scratch *budget* times, then breach."""

    name = "budgeted"

    def __init__(self, budget: int) -> None:
        self.budget = budget

    def on_crash(self, task: Task, now: float) -> CrashOutcome:
        if task.restarts < self.budget:
            return super().on_crash(task, now)
        assert task.last_start is not None
        return CrashOutcome(
            requeued=False, work_lost=now - task.last_start, penalty=_breach(task, now)
        )


class LiveSite(MarketSite):
    """One seller of the live market.

    Parameters
    ----------
    clock:
        The service's clock (market units).
    spec:
        Capacity and slack threshold (:class:`~repro.live.config.LiveSiteSpec`).
    executor:
        How a started task runs — the engine's execution seam (see
        :mod:`repro.site.service`).  The service also asks it to
        ``kill_all()`` when the drain grace expires.
    """

    def __init__(
        self,
        clock: Clock,
        spec: LiveSiteSpec,
        executor,
        obs=None,
    ) -> None:
        super().__init__(
            None,
            spec.site_id,
            spec.slots,
            FirstReward(ALPHA, DISCOUNT_RATE),
            admission=SlackAdmission(threshold=spec.threshold, discount_rate=DISCOUNT_RATE),
            obs=obs,
            restart_policy=BudgetedRestart(MAX_RESTARTS),
            clock=clock,
            executor=executor,
        )

    def abandon(self) -> None:
        """Forced shutdown: breach all queued work, requeue nothing more.

        Called before the running children are killed, so that their
        exits settle as breaches — a failed run with budget left would
        otherwise requeue and restart during shutdown.
        """
        engine = self.engine
        engine.restart_policy.budget = 0
        now = self.clock.now
        for task in engine.pool.tasks:
            engine.pool.remove(task)
            engine.ledger.note_crash(task)
            penalty = _breach(task, now)
            engine.ledger.note_breach(task, penalty)
            if engine.obs is not None:
                engine.obs.task_breached(task, now, penalty)
            for listener in engine.finish_listeners:
                listener(task)

    def __repr__(self) -> str:
        return (
            f"<LiveSite {self.site_id!r} queued={self.engine.queue_length} "
            f"running={self.engine.running_count} revenue={self.revenue:.1f}>"
        )
