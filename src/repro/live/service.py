"""The live service: broker + sites on one event loop.

:class:`LiveService` is the asyncio hub the HTTP front end talks to.
It owns the live clock, the sites, and the unmodified
:class:`~repro.market.broker.Broker`.  There is no dispatch loop: the
site engine starts queued work at award and at every exit, exactly as
in the simulator, and each start is handed to the site's executor.

Lifecycle::

    service = LiveService(config, obs=obs)
    await service.start()          # journal fsyncs off the loop
    service.submit_bids(parsed)    # from the HTTP layer, any number
    ...
    await service.drain()          # 503 new bids, finish in-flight work
    await service.stop()

Draining honours ``config.drain_grace`` (wall seconds): past the grace
period, still-queued tasks are abandoned and still-running subprocesses
killed, so shutdown always terminates with every contract settled.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import LiveServiceError
from repro.live.api import ApiError, BidRequest, bid_result_doc
from repro.live.clock import WallClock
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.executor import (
    POLL_INTERVAL,
    ExecutionReport,
    SubprocessExecutor,
    sleep_argv,
)
from repro.live.site import LiveSite
from repro.market.broker import Broker
from repro.obs.flight import FlightRecorder
from repro.obs.prom import RateWindow
from repro.sim.clock import Clock
from repro.tasks.bid import TaskBid
from repro.tasks.contract import Contract
from repro.tasks.task import Task

#: Retry-After hint (wall seconds) on 429 shed and 503 drain answers.
RETRY_AFTER_S = 1.0

#: Most-recent ``Idempotency-Key`` responses the service retains for
#: replay: a retry older than this many distinct keys can no longer be
#: deduplicated.
IDEMPOTENCY_CAPACITY = 1024


class IdempotencyTable:
    """Bounded FIFO map from ``Idempotency-Key`` to the stored response.

    A retried ``POST /bids`` carrying a key already in the table gets
    the original response document back instead of a second
    negotiation — the "exactly one award per logical request" half of
    the durability contract.  The table is bounded: past ``capacity``
    distinct keys the oldest entry is evicted, so a sufficiently stale
    retry degrades to a fresh negotiation rather than unbounded memory.
    """

    def __init__(self, capacity: int = IDEMPOTENCY_CAPACITY) -> None:
        if capacity < 1:
            raise LiveServiceError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._entries: dict[str, object] = {}
        self.hits = 0

    def get(self, key: str) -> Optional[object]:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
        return entry

    def put(self, key: str, response: object) -> None:
        if key in self._entries:
            return  # first response wins; retries must replay it
        while len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = response

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


@dataclass
class LiveRecord:
    """Everything the API can say about one submitted bid."""

    bid: TaskBid
    submitted_at: float
    accepted: bool
    quotes: int
    reason: Optional[str] = None
    site_id: Optional[str] = None
    task: Optional[Task] = None
    contract: Optional[Contract] = None
    #: the client's command line; ``None`` sleeps for the declared runtime
    argv: Optional[tuple[str, ...]] = None
    #: what the task's latest subprocess run came to
    report: Optional[ExecutionReport] = None


class _SiteExecutor(SubprocessExecutor):
    """One site's execution seam on the wall clock.

    Where the simulator's executor schedules a completion event, this
    one starts a child process and reports its exit — ``ok`` or not —
    to the engine's ``on_exit``.  The rest is live-only bookkeeping with
    no simulated meaning: the client's ``argv``, the write-ahead spawn
    intent, the watchdog deadline and the :class:`ExecutionReport`.
    """

    def __init__(self, service: "LiveService", slots: int) -> None:
        super().__init__(service.clock, rate=service.config.rate, max_running=slots)
        self.service = service

    def launch(self, task: Task, now: float, on_exit: Callable[..., Any]) -> asyncio.Task:
        run = asyncio.get_running_loop().create_task(self._execute(task, on_exit))
        self.service._inflight.add(run)
        run.add_done_callback(self.service._run_finished)
        return run

    def cancel(self, handle: asyncio.Task) -> None:
        raise LiveServiceError(
            "a live run ends by exiting or at its watchdog; it cannot be taken back"
        )

    async def _execute(self, task: Task, on_exit: Callable[..., Any]) -> None:
        # Yield once before forking.  A task is launched inside the award
        # that contracted it, and the fork (~0.8 ms, blocking) would
        # otherwise run ahead of the connection close that ends the
        # awarding response — the client reads to EOF.  By the time this
        # resumes, the negotiation has also filed the task's record.
        await asyncio.sleep(0)
        record = self.service._record_of_task[task.tid]
        argv = record.argv or sleep_argv(task.remaining / self.rate)
        factor = self.service.config.timeout_factor
        # the spawn-intent journal write below, and the settlement's
        # behind on_exit (a callback repro lint cannot follow —
        # docs/static_analysis.md), block only under fsync=always (the
        # operator's explicit write-ahead strictness); interval-policy
        # syncs run on the thread pool (LiveService.start)
        record.report = await self.run(
            argv,
            factor * task.estimate if factor > 0 else None,
            on_spawn=lambda pid: self.service._note_spawn(record, argv, pid),  # repro: noqa ASY001  # fsync=always is deliberate write-ahead strictness; interval is offloaded
        )
        on_exit(task, ok=record.report.ok)


class LiveService:
    """Hosts the market on the wall clock.

    *clock* and *executor* are seams for tests and for hosting the
    service on the simulation kernel, not settings: by default the clock
    is a :class:`~repro.live.clock.WallClock` and every site runs its
    tasks as child processes.  *executor* is called once per site spec
    and returns that site's executor — the engine's execution seam
    (``launch``/``cancel``, see :mod:`repro.site.service`), of which the
    service itself asks ``kill_all()`` when the drain grace expires and
    ``peak_running`` for ``GET /status``.
    """

    def __init__(
        self,
        config: LiveConfig,
        obs=None,
        clock: Optional[Clock] = None,
        flight: Optional[FlightRecorder] = None,
        executor: Optional[Callable[[LiveSiteSpec], Any]] = None,
    ) -> None:
        self.config = config
        self.clock: Clock = clock if clock is not None else WallClock(config.rate)
        self.obs = obs
        self.flight = flight
        #: windowed operational rates for /metrics (wall-second domain)
        self.rates = RateWindow()
        self.sites: list[LiveSite] = []
        for spec in config.sites:
            site = LiveSite(
                self.clock,
                spec,
                _SiteExecutor(self, spec.slots) if executor is None else executor(spec),
                obs=obs,
            )
            site.settlement_listeners.append(self._note_settlement)
            self.sites.append(site)
        # the default strategy, as in the simulated market: best yield
        self.broker = Broker(self.sites)
        self.broker.open_books(flight)
        self._record_of_task: dict[int, LiveRecord] = {}
        self.idempotency = IdempotencyTable()
        #: bids refused at the queue watermark (429 answers)
        self.sheds = 0
        self.draining = False
        #: exceptions raised by execution tasks (executor bugs, not task
        #: failures — those settle normally); surfaced via GET /status
        self.errors: list[str] = []
        self._inflight: set[asyncio.Task] = set()
        self._started_at = self.clock.now

    # ------------------------------------------------------------------
    # Intake (called by the HTTP layer, on the event loop thread)
    # ------------------------------------------------------------------
    @property
    def queued_total(self) -> int:
        """Tasks awaiting dispatch across all sites (the shed signal)."""
        return sum(site.engine.queue_length for site in self.sites)

    def _check_intake(self, client_id: Optional[str] = None) -> None:
        """Admission control: draining → 503, over the watermark → 429.

        Checked once per request (not per bid within a batch) so a
        batch is admitted or refused atomically — a mid-batch refusal
        would discard negotiated awards from the response and make the
        client's retry double-award them.
        """
        if self.draining:
            raise ApiError(
                "service is draining; not accepting bids",
                status=503,
                retry_after=RETRY_AFTER_S,
            )
        watermark = self.config.queue_watermark
        if watermark and self.queued_total >= watermark:
            self.sheds += 1
            if self.flight is not None:
                self.flight.shed(
                    self.clock.now,
                    queued=self.queued_total,
                    watermark=watermark,
                    retry_after_s=RETRY_AFTER_S,
                    client_id=client_id,
                )
            raise ApiError(
                f"queue depth {self.queued_total} at watermark {watermark}; "
                "retry later",
                status=429,
                retry_after=RETRY_AFTER_S,
            )

    def submit_bid(self, request: BidRequest) -> LiveRecord:
        """Negotiate one bid with every site; returns its record."""
        self._check_intake(request.client_id)
        return self._negotiate_bid(request)

    def _negotiate_bid(self, request: BidRequest) -> LiveRecord:
        now = self.clock.now
        bid = TaskBid(
            runtime=request.runtime,
            value=request.value,
            decay=request.decay,
            bound=request.bound,
            client_id=request.client_id,
            # anchor value decay at intake: negotiation and queueing
            # latency count as delay, the sim's brokered semantics
            released_at=now,
        )
        if self.flight is not None:
            # write-ahead: the intent to negotiate is durable before any
            # market state changes, so recovery can tell "accepted but
            # never awarded" from "never arrived"
            self.flight.intent(
                now,
                "accept",
                bid_id=bid.bid_id,
                client_id=bid.client_id,
                runtime=bid.runtime,
                value=bid.value,
                decay=bid.decay,
                bound=bid.bound,
            )
        negotiation_started = time.perf_counter()
        outcome = self.broker.negotiate(bid)
        self.rates.note_roundtrip((time.perf_counter() - negotiation_started) * 1e6)
        self.rates.note_bid(self._wall_now(), outcome.accepted)
        record = LiveRecord(
            bid=bid,
            submitted_at=now,
            accepted=outcome.accepted,
            quotes=len(outcome.quotes),
            argv=request.argv,
        )
        if outcome.accepted:
            assert outcome.contract is not None and outcome.winner is not None
            record.site_id = outcome.winner.site_id
            record.contract = outcome.contract
            record.task = outcome.contract.task
            assert record.task is not None
            # the award may already have launched the task; its run reads
            # this record only after yielding to the loop (_SiteExecutor)
            self._record_of_task[record.task.tid] = record
        else:
            record.reason = (
                "no site quoted" if not outcome.quotes else "no quote selected"
            )
        return record

    def submit_bids(self, requests: list[BidRequest]) -> list[LiveRecord]:
        self._check_intake(requests[0].client_id if requests else None)
        return [self._negotiate_bid(r) for r in requests]

    def handle_bids(
        self,
        requests: list[BidRequest],
        idempotency_key: Optional[str] = None,
    ) -> tuple[object, bool]:
        """Process a ``POST /bids`` request with idempotent replay.

        Returns ``(response_doc, replayed)``.  A request replaying a
        known ``Idempotency-Key`` gets the stored response document
        back — no second negotiation, so a retried award stays one
        award.  Fresh keyed responses are journaled (``intent`` record,
        action ``response``) before the reply leaves the socket, so the
        dedup table survives a crash.
        """
        if idempotency_key is not None:
            stored = self.idempotency.get(idempotency_key)
            if stored is not None:
                return stored, True
        records = self.submit_bids(requests)
        docs = [bid_result_doc(r) for r in records]
        doc: object = docs[0] if len(docs) == 1 else {"results": docs}
        if idempotency_key is not None:
            self.idempotency.put(idempotency_key, doc)
            if self.flight is not None:
                self.flight.intent(
                    self.clock.now,
                    "response",
                    idempotency_key=idempotency_key,
                    response=doc,
                )
        return doc, False

    def restore_response(self, idempotency_key: str, doc: object) -> None:
        """Re-seed the dedup table from a journaled response (recovery)."""
        self.idempotency.put(idempotency_key, doc)

    def _wall_now(self) -> float:
        """Wall seconds since the clock epoch (market units / rate)."""
        return self.clock.now / self.config.rate

    def _note_settlement(self, contract: Contract, task: Task) -> None:
        self.rates.note_settlement(self._wall_now(), contract.actual_price)

    def _note_spawn(self, record: LiveRecord, argv: tuple[str, ...], pid: int) -> None:
        """Journal a spawn intent: the PID (plus argv[0] to guard against
        PID reuse) lets crash recovery find and kill orphaned children."""
        if self.flight is None:
            return
        assert record.task is not None and record.contract is not None
        self.flight.intent(
            self.clock.now,
            "spawn",
            site_id=record.site_id,
            task_tid=record.task.tid,
            contract_id=record.contract.contract_id,
            pid=pid,
            argv0=argv[0],
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self.flight is not None and self.flight.sink is not None:
            # interval-policy journal fsyncs run on the default thread
            # pool so the durability cadence never stalls the event
            # loop (fsync=always stays synchronous: that policy trades
            # latency for write-ahead strictness on purpose)
            loop = asyncio.get_running_loop()
            self.flight.sink.set_offload(
                lambda fn: loop.run_in_executor(None, fn)
            )

    def _run_finished(self, run: asyncio.Task) -> None:
        self._inflight.discard(run)
        if not run.cancelled() and run.exception() is not None:
            # surface executor bugs instead of silently dropping the
            # slot; the record's task stays open, visible via GET /tasks
            self.errors.append(repr(run.exception()))

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return (
            all(site.engine.all_work_done() for site in self.sites)
            and not self._inflight
        )

    async def drain(self) -> None:
        """Finish in-flight work; force-settle whatever outlives grace.

        Waits only through :attr:`clock` — ``idle`` is polled every
        ``POLL_INTERVAL`` until the grace deadline — so the same
        coroutine drains on the event loop and on the simulation kernel.
        """
        self.draining = True
        poll = POLL_INTERVAL * self.config.rate
        deadline = self.clock.now + self.config.drain_grace * self.config.rate
        while not self.idle:
            remaining = deadline - self.clock.now
            if remaining <= 0:
                break
            await self.clock.sleep(min(remaining, poll))
        if not self.idle:
            # grace expired.  An exit dispatches synchronously, so the
            # order is: abandon the queue and spend every restart budget
            # first, then kill — a killed child's exit then finds nothing
            # to start and nowhere to requeue, and settles as a breach
            # through the normal failure path.
            for site in self.sites:
                # settlement journal writes during forced abandonment
                # (through the engine's finish listeners, where repro
                # lint cannot follow — docs/static_analysis.md): drain is
                # shutdown, stalling the loop here delays no client, and
                # the records must be durable before exit
                site.abandon()
            while True:
                # again each round: a run launched just before the grace
                # expired may not have forked yet
                for site in self.sites:
                    site.engine.executor.kill_all()
                if not self._inflight:
                    break
                await self.clock.sleep(poll)
        self.broker.close_books()  # repro: noqa ASY001  # shutdown path; summaries must hit the journal before exit

    async def stop(self) -> None:
        """Undo :meth:`start`: journal syncs run in line again."""
        if self.flight is not None and self.flight.sink is not None:
            self.flight.sink.set_offload(None)

    # ------------------------------------------------------------------
    # Introspection (GET /status, /tasks)
    # ------------------------------------------------------------------
    def record_of_task(self, task_tid: int) -> Optional[LiveRecord]:
        return self._record_of_task.get(task_tid)

    def task_records(self) -> list[LiveRecord]:
        return list(self._record_of_task.values())

    def rate_snapshot(self) -> dict:
        """Windowed operational rates, evaluated at the current wall time."""
        return self.rates.snapshot(self._wall_now())

    def status(self) -> dict:
        from repro.live.api import API_VERSION

        states: dict[str, int] = {}
        for record in self._record_of_task.values():
            if record.task is not None:
                key = record.task.state.value
                states[key] = states.get(key, 0) + 1
        return {
            "service": "repro.live",
            "api": API_VERSION,
            "now": self.clock.now,
            "rate": self.config.rate,
            "draining": self.draining,
            "errors": list(self.errors),
            "negotiations": self.broker.negotiations,
            "rejections": self.broker.rejections,
            "sheds": self.sheds,
            "queued": self.queued_total,
            "queue_watermark": self.config.queue_watermark,
            "idempotency": {
                "entries": len(self.idempotency),
                "hits": self.idempotency.hits,
                "capacity": self.idempotency.capacity,
            },
            "tasks": states,
            "revenue": sum(site.revenue for site in self.sites),
            "sites": [
                {
                    "site_id": site.site_id,
                    "slots": site.engine.processors.count,
                    "queued": site.engine.queue_length,
                    "running": site.engine.running_count,
                    "revenue": site.revenue,
                    "quotes_issued": site.quotes_issued,
                    "quotes_declined": site.quotes_declined,
                    "peak_running": site.engine.executor.peak_running,
                    "ledger": site.engine.ledger.summary(),
                }
                for site in self.sites
            ],
        }
