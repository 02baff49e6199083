"""A live task-service site: a ``MarketSite`` on the wall clock.

There is one site implementation.  Quoting, award, dispatch, exit
handling and settlement are :class:`~repro.market.sites.MarketSite` over
:class:`~repro.site.service.TaskServiceSite`, unchanged; a live site is
that class built with the service's clock, an executor that runs a
started task as a child process instead of a completion event, and the
restart policy below.  What this module adds is only what has no
simulated meaning: the failure budget of real subprocesses, forced
abandonment at shutdown, and the books recovery carries across a crash.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.faults.restart import CrashOutcome, RequeueRestart
from repro.live.config import LiveSiteSpec
from repro.market.sites import MarketSite
from repro.obs.flight import FlightRecorder
from repro.scheduling.registry import make_heuristic
from repro.sim.clock import Clock
from repro.site.admission import SlackAdmission
from repro.tasks.task import Task


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
        Capacity and policy knobs (:class:`~repro.live.config.LiveSiteSpec`).
    executor:
        How a started task runs — the engine's execution seam (see
        :mod:`repro.site.service`).  The service also asks it to
        ``kill_all()`` when the drain grace expires.
    max_restarts:
        Failed-run requeues before the contract is breached.
    """

    def __init__(
        self,
        clock: Clock,
        spec: LiveSiteSpec,
        executor,
        max_restarts: int = 1,
        obs=None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        super().__init__(
            None,
            spec.site_id,
            spec.slots,
            make_heuristic(spec.heuristic, **dict(spec.heuristic_params)),
            admission=SlackAdmission(
                threshold=spec.threshold, discount_rate=spec.discount_rate
            ),
            obs=obs,
            restart_policy=BudgetedRestart(int(max_restarts)),
            flight=flight,
            clock=clock,
            executor=executor,
        )
        #: contracts settled before a crash, carried in by recovery so
        #: the site summary reconciles over the stitched journal
        self.carried_contracts = 0

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

    @property
    def contracts_total(self) -> int:
        """Awards across the site's whole journal, pre-crash included."""
        return self.carried_contracts + len(self.contracts)

    def carry_books(
        self,
        revenue: float,
        contracts: int,
        quotes_issued: int,
        quotes_declined: int,
    ) -> None:
        """Seed the books with pre-crash totals (recovery only).

        The drain-time site summary must reconcile against *every*
        settlement and award in the stitched journal, not just the ones
        this process made — so recovery folds the replayed history into
        the counters before intake resumes.
        """
        self.revenue += float(revenue)
        self.carried_contracts += int(contracts)
        self.quotes_issued += int(quotes_issued)
        self.quotes_declined += int(quotes_declined)

    def __repr__(self) -> str:
        return (
            f"<LiveSite {self.site_id!r} queued={self.engine.queue_length} "
            f"running={self.engine.running_count} revenue={self.revenue:.1f}>"
        )
