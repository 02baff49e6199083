"""The resilience manager: health, breakers, and failover re-bidding.

One :class:`ResilienceManager` coordinates recovery for a whole market:

* it listens to every site's settlement and crash streams and folds the
  outcomes into per-site :class:`~repro.resilience.health.HealthTracker`
  scores and :class:`~repro.resilience.breaker.CircuitBreaker` states;
* the :class:`~repro.resilience.broker.ResilientBroker` asks it which
  sites are currently eligible (breaker CLOSED, or HALF_OPEN with probe
  slots) before soliciting quotes; and
* when a contract is *breached* — a crash abandoned the task, or an
  expired-task discard cancelled it — the manager re-bids the task to
  the surviving sites with its decayed remaining value, bounded by a
  per-lineage failover budget.

Conservation invariants the manager preserves (and the property tests
assert): a task lineage never runs to completion on two sites — the
original task reaches a terminal state (cancelled, settled by breach)
before any re-bid is issued — and every contract settles exactly once,
so total settled value is a sum over exactly-once settlements.

The manager is *attached* only when its config is enabled; disabled it
registers no listeners and the broker falls back to the plain
:class:`~repro.market.broker.Broker` path, keeping the layer bit-inert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.market.sites import MarketSite
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.config import ResilienceConfig
from repro.resilience.health import HealthTracker
from repro.sim.kernel import Simulator
from repro.tasks.bid import TaskBid
from repro.tasks.contract import Contract

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.market.broker import NegotiationOutcome
    from repro.obs.instrument import Observability
    from repro.tasks.task import Task

#: Sim-time delay before a failover re-bid is issued: the same instant,
#: but as a separately scheduled event, after the breach has settled.
FAILOVER_DELAY = 0.0


@dataclass
class ResilienceStats:
    """Aggregate recovery counters for one market run."""

    breaches: int = 0
    failovers_attempted: int = 0
    failovers_contracted: int = 0
    failovers_completed: int = 0
    value_recovered: float = 0.0  # settled price of completed re-runs
    value_lost_to_breach: float = 0.0  # penalties paid on breaches
    lineages_exhausted: int = 0  # failures with no failover budget left

    def summary(self) -> dict:
        return {
            "breaches": self.breaches,
            "failovers_attempted": self.failovers_attempted,
            "failovers_contracted": self.failovers_contracted,
            "failovers_completed": self.failovers_completed,
            "value_recovered": self.value_recovered,
            "value_lost_to_breach": self.value_lost_to_breach,
            "lineages_exhausted": self.lineages_exhausted,
        }


@dataclass
class Lineage:
    """Recovery history of one client task across re-bids.

    All re-bids share the root bid's value function *and release
    anchor*, so a failed-over task re-enters the market with its decayed
    remaining value — time already lost keeps counting against it.
    """

    root_bid: TaskBid
    attempts: int = 0  # failover re-bids issued
    contracts: list[Contract] = field(default_factory=list)
    completed: int = 0  # contracts settled by completion
    done: bool = False


class ResilienceManager:
    """Market-level recovery coordinator (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        config: ResilienceConfig,
        sites: Sequence[MarketSite],
        obs: "Optional[Observability]" = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.obs = obs
        self.sites: dict[str, MarketSite] = {s.site_id: s for s in sites}
        self.health = HealthTracker()
        self.breakers: dict[str, CircuitBreaker] = {
            sid: CircuitBreaker(sid) for sid in self.sites
        }
        self.stats = ResilienceStats()
        #: broker used for failover re-bids; set by ResilientBroker
        self.broker = None
        self._lineage_of: dict[int, Lineage] = {}  # bid_id (any attempt) -> lineage
        self.lineages: list[Lineage] = []
        self._emitted_transitions: dict[str, int] = {sid: 0 for sid in self.sites}
        if config.enabled:
            for site in sites:
                site.settlement_listeners.append(self._settlement_hook(site))
                site.engine.crash_listeners.append(self._crash_hook(site))

    # ------------------------------------------------------------------
    # Breaker-gated site eligibility (asked by the ResilientBroker)
    # ------------------------------------------------------------------
    def eligible_sites(
        self, sites: Sequence[MarketSite], now: float, exclude: frozenset = frozenset()
    ) -> list[MarketSite]:
        out = []
        for site in sites:
            if site.site_id in exclude:
                continue
            breaker = self.breakers.get(site.site_id)
            if breaker is None or breaker.allow(now):
                out.append(site)
            if breaker is not None:
                self._publish_breaker(breaker)
        return out

    def _publish_breaker(self, breaker: CircuitBreaker) -> None:
        """Emit any breaker transitions not yet published to telemetry."""
        emitted = self._emitted_transitions.get(breaker.site_id, 0)
        fresh = breaker.transitions[emitted:]
        self._emitted_transitions[breaker.site_id] = len(breaker.transitions)
        if not fresh:
            return
        flight = self.sites[breaker.site_id].flight
        for when, old, new in fresh:
            if self.obs is not None:
                self.obs.breaker_transition(breaker.site_id, old, new, when)
            if flight is not None:
                flight.breaker(when, breaker.site_id, old, new)

    # ------------------------------------------------------------------
    # Lineage bookkeeping
    # ------------------------------------------------------------------
    def lineage_for(self, bid: TaskBid) -> Lineage:
        lineage = self._lineage_of.get(bid.bid_id)
        if lineage is None:
            lineage = Lineage(root_bid=bid)
            self._lineage_of[bid.bid_id] = lineage
            self.lineages.append(lineage)
        return lineage

    def note_award(self, bid: TaskBid, outcome: "NegotiationOutcome") -> None:
        """An award landed through the resilient broker."""
        assert outcome.contract is not None
        lineage = self.lineage_for(bid)
        lineage.contracts.append(outcome.contract)
        breaker = self.breakers.get(outcome.contract.site_id)
        if breaker is not None:
            breaker.note_probe()

    # ------------------------------------------------------------------
    # Outcome listeners (wired per site when enabled)
    # ------------------------------------------------------------------
    def _settlement_hook(self, site: MarketSite):
        def on_settlement(contract: Contract, task: "Task") -> None:
            self._on_settlement(site.site_id, contract, task)

        return on_settlement

    def _crash_hook(self, site: MarketSite):
        def on_crash(task: "Task", outcome) -> None:
            # breaches surface through settlement; a requeued crash is a
            # soft failure that only dents health
            if outcome.requeued:
                self.health.observe(site.site_id, "restart")
                self._publish_health(site.site_id)

        return on_crash

    def _publish_health(self, site_id: str) -> None:
        if self.obs is not None:
            self.obs.site_health(site_id, self.health.score(site_id), self.sim.now)

    def _on_settlement(self, site_id: str, contract: Contract, task: "Task") -> None:
        now = self.sim.now
        breaker = self.breakers.get(site_id)
        lineage = self._lineage_of.get(contract.bid.bid_id)
        if task.state.value == "cancelled":
            if lineage is None:
                # contract formed outside the resilient broker; adopt it
                # so failover still applies
                lineage = self.lineage_for(contract.bid)
            self.stats.breaches += 1
            price = contract.actual_price if contract.actual_price is not None else 0.0
            self.stats.value_lost_to_breach += max(0.0, -price)
            self.health.observe(site_id, "breach")
            if breaker is not None:
                breaker.record_failure(
                    now,
                    breach_rate=self.health.breach_rate(site_id),
                    events=self.health.events(site_id),
                )
                self._publish_breaker(breaker)
            self._publish_health(site_id)
            self._maybe_failover(lineage, failed_site=site_id)
            return
        self.health.observe(site_id, "completed" if contract.on_time else "late")
        if breaker is not None:
            breaker.record_success(now)
            self._publish_breaker(breaker)
        self._publish_health(site_id)
        if lineage is not None:
            lineage.completed += 1
            lineage.done = True
            if contract.bid.bid_id != lineage.root_bid.bid_id:
                # a failover re-run made it to completion elsewhere
                price = contract.actual_price if contract.actual_price is not None else 0.0
                self.stats.failovers_completed += 1
                self.stats.value_recovered += max(0.0, price)
                if self.obs is not None:
                    self.obs.task_recovered(max(0.0, price), now)

    # ------------------------------------------------------------------
    # Failover re-bidding
    # ------------------------------------------------------------------
    def _rebid(self, lineage: Lineage) -> TaskBid:
        """A fresh bid for the lineage's task, value anchor preserved.

        The new bid keeps the root's release time: the value function
        has been decaying since the client first released the task, so
        the re-bid carries only the *remaining* value — sites quote (and
        admission-control) it accordingly.
        """
        root = lineage.root_bid
        rebid = TaskBid(
            runtime=root.runtime,
            value=root.value,
            decay=root.decay,
            bound=root.bound,
            demand=root.demand,
            client_id=root.client_id,
            released_at=root.released_at,
        )
        self._lineage_of[rebid.bid_id] = lineage
        return rebid

    def _maybe_failover(self, lineage: Optional[Lineage], failed_site: str) -> None:
        if lineage is None or lineage.done or self.broker is None:
            return
        if lineage.attempts >= self.config.failover_budget:
            self.stats.lineages_exhausted += 1
            return
        lineage.attempts += 1
        self.stats.failovers_attempted += 1
        if self.obs is not None:
            self.obs.failover_started(
                lineage.root_bid.bid_id, lineage.attempts, self.sim.now
            )
        self.sim.schedule(
            FAILOVER_DELAY,
            self._run_failover,
            lineage,
            failed_site,
            tag="resilience:failover",
        )

    def _run_failover(self, lineage: Lineage, failed_site: str) -> None:
        # the site that just failed the task sits this round out (it
        # still quotes in later rounds)
        rebid = self._rebid(lineage)
        contract = self.broker.negotiate(rebid, exclude=frozenset({failed_site})).contract
        if contract is not None:
            self.stats.failovers_contracted += 1
        if self.obs is not None:
            self.obs.failover_finished(
                lineage.root_bid.bid_id,
                contract is not None,
                contract.site_id if contract is not None else None,
                self.sim.now,
            )

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------
    def finalize(self, now: float) -> dict:
        """Close breaker books; returns the full resilience summary."""
        for breaker in self.breakers.values():
            breaker.finalize(now)
            self._publish_breaker(breaker)
        return self.summary()

    @property
    def breaker_open_time(self) -> dict[str, float]:
        return {sid: b.open_time for sid, b in sorted(self.breakers.items())}

    @property
    def breaker_opens(self) -> int:
        return sum(b.opens for b in self.breakers.values())

    @property
    def double_completions(self) -> int:
        """Lineages whose task completed on more than one site.

        Must be 0 always — the conservation invariant the chaos sweep
        and the property tests assert.
        """
        return sum(1 for lineage in self.lineages if lineage.completed > 1)

    def summary(self) -> dict:
        return {
            **self.stats.summary(),
            "double_completions": self.double_completions,
            "breaker_opens": self.breaker_opens,
            "breaker_open_time": self.breaker_open_time,
            "health": self.health.snapshot(),
            "breakers": {
                sid: b.summary() for sid, b in sorted(self.breakers.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"<ResilienceManager enabled={self.config.enabled} "
            f"sites={len(self.sites)} failovers={self.stats.failovers_attempted} "
            f"recovered={self.stats.value_recovered:.1f}>"
        )
