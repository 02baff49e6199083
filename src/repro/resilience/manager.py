"""The resilience manager: failover re-bidding on the plain broker.

One :class:`ResilienceManager` listens to every site's settlement
stream.  When a contract is *breached* — a crash abandoned the task, or
an expired-task discard cancelled it — the manager adopts the task as a
:class:`Lineage` and re-bids it, with its decayed remaining value, as
one more :meth:`~repro.market.broker.Broker.negotiate` round over every
site except the one that failed it, bounded by a per-lineage failover
budget.  Risk stays priced, not refused: every site is asked for every
bid, and a site that expects to be late says so in its quote.

Conservation invariants the manager preserves (and the property tests
assert): a task lineage never runs to completion on two sites — the
original task reaches a terminal state (cancelled, settled by breach)
before any re-bid is issued — and every contract settles exactly once,
so total settled value is a sum over exactly-once settlements.

With a failover budget of 0 the manager attaches nothing: the market is
the plain market, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import MarketError
from repro.tasks.bid import TaskBid
from repro.tasks.contract import Contract

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.market.broker import Broker
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
    """Recovery history of one breached client task across re-bids.

    All re-bids share the root bid's value function *and release
    anchor*, so a failed-over task re-enters the market with its decayed
    remaining value — time already lost keeps counting against it.
    """

    root_bid: TaskBid
    attempts: int = 0  # failover re-bids issued
    contracts: list[Contract] = field(default_factory=list)
    completed: int = 0  # contracts settled by completion


class ResilienceManager:
    """Failover coordinator over one broker's sites (see module docstring)."""

    def __init__(self, broker: "Broker", failover_budget: int) -> None:
        if failover_budget < 0:
            raise MarketError(f"failover_budget must be >= 0, got {failover_budget!r}")
        self.broker = broker
        self.failover_budget = failover_budget
        self.sim = broker.sites[0].sim
        self.obs = broker.sites[0].engine.obs
        self.stats = ResilienceStats()
        self._lineage_of: dict[int, Lineage] = {}  # bid_id (any attempt) -> lineage
        self.lineages: list[Lineage] = []
        if failover_budget:
            for site in broker.sites:
                site.settlement_listeners.append(self._on_settlement)

    # ------------------------------------------------------------------
    # Settlement listener (wired per site when the budget is positive)
    # ------------------------------------------------------------------
    def _on_settlement(self, contract: Contract, task: "Task") -> None:
        price = contract.actual_price if contract.actual_price is not None else 0.0
        lineage = self._lineage_of.get(contract.bid.bid_id)
        if task.state.value != "cancelled":
            if lineage is not None:
                # a failover re-run made it to completion elsewhere
                lineage.completed += 1
                self.stats.failovers_completed += 1
                self.stats.value_recovered += max(0.0, price)
                if self.obs is not None:
                    self.obs.task_recovered(max(0.0, price), self.sim.now)
            return
        if lineage is None:
            # a breached root contract: adopt its task as a lineage
            lineage = Lineage(root_bid=contract.bid, contracts=[contract])
            self._lineage_of[contract.bid.bid_id] = lineage
            self.lineages.append(lineage)
        self.stats.breaches += 1
        self.stats.value_lost_to_breach += max(0.0, -price)
        self._maybe_failover(lineage, failed_site=contract.site_id)

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

    def _maybe_failover(self, lineage: Lineage, failed_site: str) -> None:
        if lineage.completed:
            return
        if lineage.attempts >= self.failover_budget:
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
        survivors = [s for s in self.broker.sites if s.site_id != failed_site]
        contract = self.broker.negotiate(rebid, survivors).contract
        if contract is not None:
            lineage.contracts.append(contract)
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
    @property
    def double_completions(self) -> int:
        """Lineages whose task completed on more than one site.

        Must be 0 always — the conservation invariant the chaos sweep
        and the property tests assert.
        """
        return sum(1 for lineage in self.lineages if lineage.completed > 1)

    def summary(self) -> dict:
        return {**self.stats.summary(), "double_completions": self.double_completions}

    def __repr__(self) -> str:
        return (
            f"<ResilienceManager budget={self.failover_budget} "
            f"sites={len(self.broker.sites)} failovers={self.stats.failovers_attempted} "
            f"recovered={self.stats.value_recovered:.1f}>"
        )
