"""A task-service site participating in the market.

:class:`MarketSite` wraps the scheduling engine
(:class:`~repro.site.service.TaskServiceSite`) with the §6 negotiation
procedure:

1. integrate the proposed task into the candidate schedule,
2. determine its expected yield there,
3. apply the slack acceptance heuristic,
4. if worthwhile, issue a server bid (expected completion + price),
5. on contract award, execute the task; settlement happens at actual
   completion through the contract's value function.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import MarketError
from repro.scheduling.base import SchedulingHeuristic
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.site.admission import SlackAdmission
from repro.site.service import TaskServiceSite
from repro.tasks.bid import ServerBid, TaskBid
from repro.tasks.contract import Contract
from repro.tasks.task import Task
from repro.market.pricing import BidValuePricing, PricingPolicy


class MarketSite:
    """One seller in the task-service market.

    Parameters
    ----------
    sim, processors, heuristic, clock, executor:
        Passed to the underlying scheduling engine; *sim* is ``None``
        for a site hosted off the kernel (the live service), which
        brings its own *clock* and *executor*.
    admission:
        The slack policy used to decide which bids are worth answering.
    pricing:
        Pricing policy for quotes (default: bid-value pricing).
    restart_policy:
        Forwarded to the engine: the fate of tasks whose run died — a
        crashed node, a failed subprocess (see
        :mod:`repro.faults.restart`).
    """

    def __init__(
        self,
        sim: Optional[Simulator],
        site_id: str,
        processors: int,
        heuristic: SchedulingHeuristic,
        admission: Optional[SlackAdmission] = None,
        pricing: Optional[PricingPolicy] = None,
        preemption: bool = False,
        discard_expired: bool = False,
        price_board=None,
        obs=None,
        restart_policy=None,
        flight=None,
        clock: Optional[Clock] = None,
        executor=None,
    ) -> None:
        self.sim = sim
        self.site_id = site_id
        self.admission = admission if admission is not None else SlackAdmission()
        self.pricing = pricing if pricing is not None else BidValuePricing()
        self.engine = TaskServiceSite(
            sim,
            processors=processors,
            heuristic=heuristic,
            admission=None,  # admission is exercised at quote time, not submit time
            preemption=preemption,
            discard_expired=discard_expired,
            site_id=site_id,
            restart_policy=restart_policy,
            obs=obs,
            clock=clock,
            executor=executor,
        )
        #: the quoting/award clock — the engine's Clock view, shared verbatim
        self.clock = self.engine.clock
        self.engine.finish_listeners.append(self._on_task_finished)
        self._contract_of: dict[int, Contract] = {}  # task tid -> contract
        self.contracts: list[Contract] = []
        #: optional PriceBoard that receives every settlement (§2's
        #: "publish summaries of recent contracts")
        self.price_board = price_board
        #: optional FlightRecorder receiving quote/settlement events
        self.flight = flight
        #: callbacks invoked as fn(contract, task) after each settlement —
        #: the resilience layer re-bids breached tasks through these and
        #: budgeted clients reconcile committed spend
        self.settlement_listeners: list = []
        self.revenue = 0.0
        self.quotes_issued = 0
        self.quotes_declined = 0

    # ------------------------------------------------------------------
    # Phase 1: quoting
    # ------------------------------------------------------------------
    def quote(self, bid: TaskBid) -> Optional[ServerBid]:
        """Evaluate *bid* against the current candidate schedule.

        Returns a server bid when the task's slack clears the site's
        threshold; ``None`` is a rejection.  Quoting does not reserve
        capacity — the quote reflects the schedule at this instant, per
        the paper's expectation semantics.
        """
        probe = self._task_for(bid)
        decision = self.admission.evaluate(self.engine, probe)
        if not decision.accept:
            self.quotes_declined += 1
            if self.flight is not None:
                self.flight.quote(self.clock.now, self.site_id, bid, decision, None)
            return None
        self.quotes_issued += 1
        server_bid = ServerBid(
            site_id=self.site_id,
            bid_id=bid.bid_id,
            expected_completion=decision.expected_completion,
            expected_price=self.pricing.quote(bid, decision),
            expected_slack=decision.slack,
        )
        if self.flight is not None:
            self.flight.quote(self.clock.now, self.site_id, bid, decision, server_bid)
        return server_bid

    # ------------------------------------------------------------------
    # Phase 2: award and execution
    # ------------------------------------------------------------------
    def award(self, bid: TaskBid, server_bid: ServerBid) -> Contract:
        """Form the contract and start executing the task."""
        if server_bid.site_id != self.site_id:
            raise MarketError(
                f"server bid for site {server_bid.site_id!r} awarded to {self.site_id!r}"
            )
        contract = Contract(bid, server_bid, signed_at=self.clock.now)
        task = self._task_for(bid)
        contract.task_tid = task.tid
        contract.task = task
        self._contract_of[task.tid] = contract
        self.contracts.append(contract)
        self.engine.submit(task, force=True)
        return contract

    def _task_for(self, bid: TaskBid) -> Task:
        # the value function decays from the client's release time when
        # declared; otherwise from now (instant-negotiation semantics)
        arrival = bid.released_at if bid.released_at is not None else self.clock.now
        if arrival > self.clock.now:
            raise MarketError(
                f"bid {bid.bid_id} released in the future ({arrival} > {self.clock.now})"
            )
        return Task(
            arrival=arrival,
            runtime=bid.runtime,
            vf=bid.value_function(),
            demand=bid.demand,
        )

    def _on_task_finished(self, task: Task) -> None:
        contract = self._contract_of.pop(task.tid, None)
        if contract is None:
            return  # task not under contract (direct engine submission)
        if task.completion is None:
            raise MarketError(f"finished task {task.tid} has no completion time")
        now = self.clock.now
        # settlement is self-journaling: the settlement record right
        # below is the journal entry, and live recovery re-settles any
        # contract whose settlement never reached the journal — the
        # idempotent-redo half of the WAL contract (see
        # repro.live.recovery), so no separate intent precedes the act
        if task.state.value != "cancelled":
            price = contract.settle(task.completion, release=task.arrival)  # repro: noqa WAL001  # self-journaling: settlement record follows; recovery re-settles on crash
            outcome = "completed"
        elif math.isfinite(contract.vf.floor):
            price = contract.settle_breach(now)  # repro: noqa WAL001  # self-journaling: settlement record follows; recovery re-settles on crash
            outcome = "breached"
        else:
            # only a failing executor gets here: a run that died with an
            # unbounded penalty is abandoned (Task.abort) — the client
            # owes nothing, the penalty accrued so far stands
            price = contract.settle_abandoned(now, release=task.arrival)  # repro: noqa WAL001  # self-journaling: settlement record follows; recovery re-settles on crash
            outcome = "abandoned"
        self.revenue += price
        if self.flight is not None:
            self.flight.settlement(now, contract, outcome)
        if self.price_board is not None:
            self.price_board.publish(contract)
        for listener in self.settlement_listeners:
            listener(contract, task)

    # ------------------------------------------------------------------
    @property
    def on_time_rate(self) -> float:
        settled = [c for c in self.contracts if c.settled]
        if not settled:
            return 0.0
        return sum(1 for c in settled if c.on_time) / len(settled)

    def __repr__(self) -> str:
        return (
            f"<MarketSite {self.site_id!r} contracts={len(self.contracts)} "
            f"revenue={self.revenue:.1f}>"
        )
