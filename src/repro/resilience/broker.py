"""A broker whose site list is gated by circuit breakers.

:class:`ResilientBroker` is a drop-in :class:`~repro.market.broker.Broker`
that consults a :class:`~repro.resilience.manager.ResilienceManager`
before each sealed-bid round: sites whose breaker is OPEN are not
solicited, HALF_OPEN sites admit a bounded number of probe contracts,
and every award is registered with the manager so breaches can fail
over.  The round itself is :meth:`Broker.negotiate` — the broker here
only chooses who is asked — so counters, selection, pricing and the
flight journal are the plain broker's by construction; without a
manager (or with resilience disabled) every site is asked, which is what
keeps the layer bit-inert when off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.market.broker import Broker, NegotiationOutcome
from repro.market.sites import MarketSite
from repro.resilience.manager import ResilienceManager
from repro.tasks.bid import TaskBid


@dataclass
class ResilientBroker(Broker):
    """Breaker-gated sealed-bid broker (see module docstring)."""

    manager: Optional[ResilienceManager] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.manager is not None:
            # failover re-bids route back through this broker
            self.manager.broker = self

    def negotiate(
        self,
        bid: TaskBid,
        sites: Optional[Sequence[MarketSite]] = None,
        exclude: frozenset = frozenset(),
    ) -> NegotiationOutcome:
        """One sealed-bid round over the currently eligible sites.

        *exclude* names sites skipped for this round only — the failover
        path uses it to keep a re-bid away from the site that just
        failed the task.
        """
        manager = self.manager
        if manager is None or not manager.config.enabled:
            return super().negotiate(bid, sites)
        eligible = manager.eligible_sites(
            self.sites if sites is None else sites, manager.sim.now, exclude=exclude
        )
        outcome = super().negotiate(bid, eligible)
        if outcome.accepted:
            manager.note_award(bid, outcome)
        return outcome
