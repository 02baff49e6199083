"""The market layer: bidding, negotiation, and contracts across sites.

Implements Figure 1 and §6's protocol: a client (or broker acting for
it) sends a sealed :class:`~repro.tasks.bid.TaskBid` to a set of task
service sites; each site that finds the task worthwhile answers with a
:class:`~repro.tasks.bid.ServerBid` quoting an expected completion time
and price from its candidate schedule; the client selects a site, a
:class:`~repro.tasks.contract.Contract` is formed, and the task runs —
settling at the contract's value function when it actually completes.

Pricing is pluggable (§2 notes Vickrey-style pricing as an option but
evaluates bid-price contracts); selection strategies likewise.
"""

from repro.market.broker import (
    Broker,
    NegotiationOutcome,
    best_surplus,
    best_yield,
    earliest_completion,
)
from repro.market.client import BudgetedClient
from repro.market.economy import EconomyResult, MarketEconomy, run_market
from repro.market.pricing import BidValuePricing, DiscountedPricing, PricingPolicy
from repro.market.signals import PriceBoard, PricePoint
from repro.market.sites import MarketSite

__all__ = [
    "BidValuePricing",
    "Broker",
    "BudgetedClient",
    "DiscountedPricing",
    "EconomyResult",
    "MarketEconomy",
    "MarketSite",
    "NegotiationOutcome",
    "PriceBoard",
    "PricePoint",
    "PricingPolicy",
    "best_surplus",
    "best_yield",
    "earliest_completion",
    "run_market",
]
