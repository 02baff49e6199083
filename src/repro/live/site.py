"""A live task-service site: MarketSite's wall-clock twin.

The negotiation surface is identical — ``quote``/``award`` duck-type
:class:`~repro.market.sites.MarketSite`, so the unmodified
:class:`~repro.market.broker.Broker` negotiates over live sites — and
the *decision machinery is shared, not reimplemented*: quoting calls the
same :class:`~repro.site.admission.SlackAdmission` (which reads this
site's ``clock``/``pool``/``heuristic``/``processors``, exactly the
attributes the sim engine exposes), dispatch ranks the queue with the
same heuristic ``scores``, and settlement evaluates the same contract
value functions.  Only *execution* differs: where the sim engine
schedules a completion event, the live site hands the task to the
subprocess executor and settles on whatever actually happens —
completion, crash, or timeout kill.

Failure accounting mirrors the fault layer's requeue-from-scratch
policy: a failed run requeues with its full runtime restored, up to
``max_restarts`` times; past that the contract is breached — at the
value-function floor when bounded (the simulator's exact semantics), or
via :meth:`~repro.tasks.contract.Contract.settle_abandoned` when
unbounded (a live-only outcome: subprocesses can die in ways the
fault-free simulator never models).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.errors import MarketError
from repro.live.config import LiveSiteSpec
from repro.live.executor import ExecutionReport, SubprocessExecutor, sleep_argv
from repro.market.pricing import BidValuePricing, PricingPolicy
from repro.obs.flight import FlightRecorder
from repro.scheduling.pool import PendingPool
from repro.scheduling.registry import make_heuristic
from repro.sim.clock import Clock
from repro.site.accounting import YieldLedger
from repro.site.admission import SlackAdmission
from repro.site.processors import ProcessorPool
from repro.tasks.bid import ServerBid, TaskBid
from repro.tasks.contract import Contract
from repro.tasks.task import Task


class LiveSite:
    """One seller executing real subprocesses.

    Parameters
    ----------
    clock:
        The live clock (market units) shared with the service.
    spec:
        Capacity and policy knobs (:class:`~repro.live.config.LiveSiteSpec`).
    executor:
        The subprocess executor; its ``max_running`` should equal the
        spec's ``slots`` so the semaphore backstops the scheduler.
    timeout_factor:
        Watchdog deadline as a multiple of the task's declared runtime
        (units); 0 disables the kill.
    max_restarts:
        Failed-run requeues before the contract is breached.
    """

    def __init__(
        self,
        clock: Clock,
        spec: LiveSiteSpec,
        executor: SubprocessExecutor,
        timeout_factor: float = 10.0,
        max_restarts: int = 1,
        pricing: Optional[PricingPolicy] = None,
        obs=None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.clock = clock
        self.site_id = spec.site_id
        self.executor = executor
        self.heuristic = make_heuristic(spec.heuristic, **dict(spec.heuristic_params))
        self.admission = SlackAdmission(
            threshold=spec.threshold, discount_rate=spec.discount_rate
        )
        self.pricing = pricing if pricing is not None else BidValuePricing()
        self.pool = PendingPool()
        self.processors = ProcessorPool(spec.slots)
        self.ledger = YieldLedger()
        self.obs = obs
        #: optional FlightRecorder receiving quote/settlement events
        #: (wall-clock domain; same schema as the sim recorder)
        self.flight = flight
        self.timeout_factor = float(timeout_factor)
        self.max_restarts = int(max_restarts)
        self._contract_of: dict[int, Contract] = {}  # task tid -> contract
        self._argv_of: dict[int, tuple[str, ...]] = {}
        self._report_of: dict[int, ExecutionReport] = {}
        self.contracts: list[Contract] = []
        #: callbacks invoked as fn(contract, task) after each settlement
        self.settlement_listeners: list = []
        #: called after every slot release / requeue so the service can
        #: pump its dispatch loop
        self.on_slot_free: Optional[Callable[[], None]] = None
        self.revenue = 0.0
        self.quotes_issued = 0
        self.quotes_declined = 0
        #: contracts settled before a crash, carried in by recovery so
        #: the site summary reconciles over the stitched journal
        self.carried_contracts = 0

    # ------------------------------------------------------------------
    # Negotiation surface (Broker-compatible, mirrors MarketSite)
    # ------------------------------------------------------------------
    def quote(self, bid: TaskBid) -> Optional[ServerBid]:
        """Evaluate *bid* against the live candidate schedule."""
        probe = self._task_for(bid)
        decision = self.admission.evaluate(self, probe)
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

    def award(self, bid: TaskBid, server_bid: ServerBid) -> Contract:
        """Form the contract and enqueue the task for real execution."""
        if server_bid.site_id != self.site_id:
            raise MarketError(
                f"server bid for site {server_bid.site_id!r} awarded to {self.site_id!r}"
            )
        now = self.clock.now
        contract = Contract(bid, server_bid, signed_at=now)
        task = self._task_for(bid)
        contract.task_tid = task.tid
        self._contract_of[task.tid] = contract
        self.contracts.append(contract)
        # mirror the engine's forced-submission path (admission was
        # already exercised at quote time)
        task.submit()
        self.ledger.note_submission(task, now)
        if self.obs is not None:
            self.obs.task_submitted(task, now)
        task.accept()
        self.pool.add(task)
        self.ledger.note_accept(task)
        if self.obs is not None:
            self.obs.task_admitted(task, None, now)
            self._publish_depth(now)
        return contract

    def _task_for(self, bid: TaskBid) -> Task:
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

    def set_argv(self, task_tid: int, argv: tuple[str, ...]) -> None:
        """Attach the command line the executor should run for a task."""
        self._argv_of[task_tid] = argv

    # ------------------------------------------------------------------
    # Dispatch (the engine's scheduling pass, one task at a time)
    # ------------------------------------------------------------------
    def next_dispatch(self) -> Optional[Task]:
        """Remove and return the best queued task if a slot is free.

        Same selection as the sim engine's fast path: highest heuristic
        score wins (all live tasks are single-node, so no backfilling
        pass is needed).
        """
        if not self.pool or self.processors.free_count < 1:
            return None
        if len(self.pool) == 1:
            # nothing to rank: a lone task starts
            return self.pool.remove_at(0)
        scores = self.heuristic.scores(self.pool.columns(), self.clock.now)
        return self.pool.remove_at(int(np.argmax(scores)))

    def begin(self, task: Task) -> None:
        """Claim a slot and start *task* — synchronously.

        The dispatch loop calls this *before* handing :meth:`execute` to
        the event loop: the slot must be claimed at dequeue time, or the
        loop would dequeue more tasks than there are free nodes while
        the first execution coroutine is still waiting to be scheduled.
        """
        now = self.clock.now
        self.processors.assign(task, now, now + task.estimated_remaining)
        task.start(now)
        if self.obs is not None:
            self.obs.task_started(task, now)
            self._publish_depth(now)

    async def execute(self, task: Task) -> None:
        """Run a :meth:`begin`-started *task* as a subprocess and settle it."""
        argv = self._argv_of.get(
            task.tid, sleep_argv(task.remaining / self.executor.rate)
        )
        timeout = (
            self.timeout_factor * task.estimate if self.timeout_factor > 0 else None
        )
        # the spawn-intent and settlement journal writes below block only
        # under fsync=always (the operator's explicit write-ahead
        # strictness); interval-policy syncs run on the thread pool
        # (LiveService.start)
        report = await self.executor.run(
            argv, timeout, on_spawn=lambda pid: self._note_spawn(task, argv, pid)  # repro: noqa ASY001  # fsync=always is deliberate write-ahead strictness; interval is offloaded
        )
        self._report_of[task.tid] = report
        self._on_exit(task, report)  # repro: noqa ASY001  # fsync=always is deliberate write-ahead strictness; interval is offloaded

    def _note_spawn(self, task: Task, argv: tuple[str, ...], pid: int) -> None:
        """Journal a spawn intent: the PID (plus argv[0] to guard against
        PID reuse) lets crash recovery find and kill orphaned children."""
        if self.flight is None:
            return
        contract = self._contract_of.get(task.tid)
        self.flight.intent(
            self.clock.now,
            "spawn",
            site_id=self.site_id,
            task_tid=task.tid,
            contract_id=contract.contract_id if contract is not None else None,
            pid=pid,
            argv0=argv[0],
        )

    def _on_exit(self, task: Task, report: ExecutionReport) -> None:
        now = self.clock.now
        self.processors.vacate(task, now)
        if report.ok:
            task.complete(now)
            self.ledger.note_completion(task)
            if self.obs is not None:
                self.obs.task_completed(task, now)
            self._settle(task)
        elif task.restarts < self.max_restarts:
            # requeue-from-scratch, the fault layer's default policy:
            # all progress is lost, the declared runtime is restored
            self.ledger.note_crash(task)
            task.crash(now, remaining=task.runtime, estimated_remaining=task.estimate)
            self.ledger.note_restart(task)
            self.pool.add(task)
            if self.obs is not None:
                self.obs.task_restarted(task, now, requeued=True)
        else:
            self.ledger.note_crash(task)
            self._breach(task, now)
            self._settle(task)
        if self.obs is not None:
            self._publish_depth(now)
        if self.on_slot_free is not None:
            self.on_slot_free()

    def _breach(self, task: Task, now: float) -> None:
        """Abandon a terminally failed task (restart budget exhausted)."""
        if math.isfinite(task.vf.floor):
            task.cancel(now)  # realized yield = floor, the sim's breach
        else:
            task.abort(now)  # live-only: unbounded penalties accrue
        assert task.realized_yield is not None
        penalty = max(0.0, -task.realized_yield)
        self.ledger.note_breach(task, penalty)
        if self.obs is not None:
            self.obs.task_breached(task, now, penalty)

    def abandon_queued(self) -> int:
        """Breach every still-queued task (forced shutdown); count them."""
        count = 0
        now = self.clock.now
        for task in self.pool.tasks:
            self.pool.remove(task)
            self.ledger.note_crash(task)
            self._breach(task, now)
            self._settle(task)
            count += 1
        return count

    def _settle(self, task: Task) -> None:
        contract = self._contract_of.pop(task.tid, None)
        if contract is None:
            return
        now = self.clock.now
        # settlement is self-journaling: the settlement record right
        # below is the journal entry, and recovery re-settles any
        # contract whose settlement never reached the journal — the
        # idempotent-redo half of the WAL contract (see
        # repro.live.recovery), so no separate intent precedes the act
        if task.state.value == "cancelled":
            if math.isfinite(contract.vf.floor):
                price = contract.settle_breach(now)  # repro: noqa WAL001  # self-journaling: settlement record follows; recovery re-settles on crash
                outcome = "breached"
            else:
                price = contract.settle_abandoned(now, release=task.arrival)  # repro: noqa WAL001  # self-journaling: settlement record follows; recovery re-settles on crash
                outcome = "abandoned"
        else:
            assert task.completion is not None
            price = contract.settle(task.completion, release=task.arrival)  # repro: noqa WAL001  # self-journaling: settlement record follows; recovery re-settles on crash
            outcome = "completed"
        self.revenue += price
        if self.flight is not None:
            self.flight.settlement(now, contract, outcome)
        for listener in self.settlement_listeners:
            listener(contract, task)

    def _publish_depth(self, now: float) -> None:
        if self.obs is not None:
            self.obs.queue_depth(len(self.pool), self.processors.busy_count, now)

    # ------------------------------------------------------------------
    @property
    def queued_count(self) -> int:
        return len(self.pool)

    @property
    def running_count(self) -> int:
        return self.processors.busy_count

    @property
    def idle(self) -> bool:
        """No queued or running work (drain completion test)."""
        return not self.pool and self.processors.busy_count == 0

    @property
    def open_contracts(self) -> int:
        return len(self._contract_of)

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

    def report_of(self, task_tid: int) -> Optional[ExecutionReport]:
        return self._report_of.get(task_tid)

    def __repr__(self) -> str:
        return (
            f"<LiveSite {self.site_id!r} queued={len(self.pool)} "
            f"running={self.processors.busy_count} revenue={self.revenue:.1f}>"
        )
