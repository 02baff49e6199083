"""Market-level resilience: failover re-bidding on the plain broker.

The reliability subsystem (:mod:`repro.faults`) makes individual sites
fail; this package makes the *market* recover from it.  Breached or
abandoned tasks fail over to the other sites within a bounded re-bid
budget (:mod:`~repro.resilience.manager`), each re-bid one more sealed-bid
round of the plain :class:`~repro.market.broker.Broker`, and
:func:`~repro.resilience.driver.simulate_resilient_market` runs the
whole stack under injected chaos.  No site is ever refused a bid: risk
is priced into quotes, not gated.  A failover budget of 0 attaches
nothing and is the plain market, byte for byte.
"""

from repro.resilience.driver import ResilientMarketResult, simulate_resilient_market
from repro.resilience.manager import Lineage, ResilienceManager, ResilienceStats

__all__ = [
    "Lineage",
    "ResilienceManager",
    "ResilienceStats",
    "ResilientMarketResult",
    "simulate_resilient_market",
]
