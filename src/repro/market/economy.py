"""A multi-site task-service economy driven by a workload trace.

Ties everything together: a stream of client bids (from a workload
trace) negotiated by a broker across several task-service sites, with
contracts settled as tasks complete.  This is the full Figure-1 system;
the single-site experiments of §5–§6 are the special case of one site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import MarketError
from repro.market.broker import Broker, NegotiationOutcome
from repro.market.sites import MarketSite
from repro.sim.kernel import Simulator
from repro.tasks.bid import TaskBid
from repro.workload.trace import Trace


@dataclass
class EconomyResult:
    """Aggregate outcome of a market run."""

    outcomes: list[NegotiationOutcome]
    sites: list[MarketSite]
    sim: Simulator

    @property
    def accepted(self) -> int:
        return sum(1 for o in self.outcomes if o.accepted)

    @property
    def rejected(self) -> int:
        return sum(1 for o in self.outcomes if not o.accepted)

    @property
    def total_revenue(self) -> float:
        return sum(s.revenue for s in self.sites)

    def summary(self) -> dict:
        return {
            "bids": len(self.outcomes),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "total_revenue": self.total_revenue,
            "revenue_by_site": {s.site_id: s.revenue for s in self.sites},
            "contracts_by_site": {s.site_id: len(s.contracts) for s in self.sites},
            "on_time_rates": {s.site_id: s.on_time_rate for s in self.sites},
        }


class MarketEconomy:
    """Drive a trace of client bids through a broker and its sites.

    Each trace row becomes a :class:`TaskBid` released at its arrival
    time; negotiation is instantaneous (the paper's protocol is a single
    request/response exchange).
    """

    def __init__(self, sim: Simulator, broker: Broker) -> None:
        self.sim = sim
        self.broker = broker
        self.outcomes: list[NegotiationOutcome] = []

    def offer(self, bid: TaskBid) -> NegotiationOutcome:
        """Negotiate one bid right now."""
        outcome = self.broker.negotiate(bid)
        self.outcomes.append(outcome)
        return outcome

    def schedule_trace(self, trace: Trace, client_id: str = "client") -> None:
        """Enqueue every trace row as a bid at its arrival time.

        The market layer keeps the paper's accurate-prediction assumption:
        the declared bid runtime is the true runtime (the trace's
        ``estimate`` column is ignored here).
        """
        import math

        for arrival, runtime, value, decay, bound, _estimate in trace.iter_rows():
            bid = TaskBid(
                runtime=float(runtime),
                value=float(value),
                decay=float(decay),
                bound=None if math.isinf(bound) else float(bound),
                client_id=client_id,
                released_at=float(arrival),
            )
            self.sim.schedule_at(float(arrival), self.offer, bid, tag="bid")

    def run(self) -> EconomyResult:
        """Run the simulation to completion and collect the result."""
        self.sim.run()
        for site in self.sites:
            if not site.engine.all_work_done():
                raise MarketError(f"site {site.site_id!r} drained with work outstanding")
        self.broker.close_books()
        return EconomyResult(outcomes=self.outcomes, sites=self.sites, sim=self.sim)

    @property
    def sites(self) -> list[MarketSite]:
        return self.broker.sites


def run_market(
    trace: Trace,
    sites: Sequence[MarketSite],
    broker: Optional[Broker] = None,
    flight=None,
) -> EconomyResult:
    """Convenience wrapper: negotiate *trace* across *sites* and run.

    *flight* (a ``FlightRecorder``) is handed to
    :meth:`Broker.open_books`, the market's one way in for a recorder:
    each site's capacity/policy is recorded up front and its closing
    summary when the run drains.
    """
    if broker is None:
        broker = Broker(sites=list(sites))
    sims = {s.sim for s in sites}
    if len(sims) != 1:
        raise MarketError("all sites must share one simulator")
    broker.open_books(flight)
    economy = MarketEconomy(next(iter(sims)), broker)
    economy.schedule_trace(trace)
    return economy.run()
