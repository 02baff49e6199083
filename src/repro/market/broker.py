"""The broker: negotiates one task with every site (Fig. 1).

"A broker could coordinate this negotiation process, as in Mariposa."
The broker collects quotes (sealed-bid, one round), selects the winning
site with a pluggable strategy, and awards the contract.  A Vickrey-
flavoured payment rule is available: the winner is charged the price of
the second-best quote (§2's pricing discussion; Spawn's mechanism).

The market's lifecycle is the broker's on either clock: ``run_market``
and the live service both call :meth:`Broker.open_books`,
:meth:`Broker.negotiate` and :meth:`Broker.close_books`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import MarketError
from repro.market.sites import MarketSite
from repro.obs.flight import FlightRecorder
from repro.scheduling.registry import heuristic_params
from repro.tasks.bid import ServerBid, TaskBid
from repro.tasks.contract import Contract

#: Selection strategy: picks the index of the winning quote (or None).
SelectionStrategy = Callable[[TaskBid, Sequence[ServerBid]], Optional[int]]


def earliest_completion(bid: TaskBid, quotes: Sequence[ServerBid]) -> Optional[int]:
    """Pick the quote with the earliest expected completion."""
    if not quotes:
        return None
    return min(range(len(quotes)), key=lambda i: quotes[i].expected_completion)


def _release_of(bid: TaskBid) -> float:
    return bid.released_at if bid.released_at is not None else 0.0


def best_yield(bid: TaskBid, quotes: Sequence[ServerBid]) -> Optional[int]:
    """Pick the quote maximizing the client's value at the promised time.

    The client evaluates its own value function at each site's expected
    completion — the natural criterion when prices equal bid value.
    Ties break toward earlier completion.
    """
    if not quotes:
        return None
    vf = bid.value_function()
    release = _release_of(bid)

    def client_value(q: ServerBid) -> float:
        delay = max(0.0, q.expected_completion - release - bid.runtime)
        return vf.yield_at(delay)

    return max(
        range(len(quotes)),
        key=lambda i: (client_value(quotes[i]), -quotes[i].expected_completion),
    )


def best_surplus(bid: TaskBid, quotes: Sequence[ServerBid]) -> Optional[int]:
    """Pick the quote maximizing (client value − quoted price).

    Under bid-value pricing surplus is ~0 everywhere and this degrades
    to earliest completion; with discounted pricing it shops for margin.
    """
    if not quotes:
        return None
    vf = bid.value_function()
    release = _release_of(bid)

    def surplus(q: ServerBid) -> float:
        delay = max(0.0, q.expected_completion - release - bid.runtime)
        return vf.yield_at(delay) - q.expected_price

    return max(
        range(len(quotes)),
        key=lambda i: (surplus(quotes[i]), -quotes[i].expected_completion),
    )


@dataclass
class NegotiationOutcome:
    """Result of one bid negotiation across all sites."""

    bid: TaskBid
    quotes: list[ServerBid]
    winner: Optional[ServerBid]
    contract: Optional[Contract]

    @property
    def accepted(self) -> bool:
        return self.contract is not None


@dataclass
class Broker:
    """Coordinates Fig. 1's client↔sites negotiation.

    Parameters
    ----------
    sites:
        The candidate task-service sites.
    strategy:
        Quote-selection strategy (default: client value at promised
        completion).
    vickrey:
        When True, the awarded contract's *promised price* is reduced to
        the second-best quote's price (single round, sealed bids).
    """

    sites: list[MarketSite]
    strategy: SelectionStrategy = field(default=best_yield)
    vickrey: bool = False
    negotiations: int = 0
    rejections: int = 0
    #: the recorder :meth:`open_books` attached: bids (the sites record
    #: their quotes, awards and settlements)
    flight: Optional[FlightRecorder] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.sites:
            raise MarketError("broker requires at least one site")
        ids = [s.site_id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise MarketError(f"duplicate site ids: {ids}")

    def open_books(self, flight: Optional[FlightRecorder]) -> None:
        """Attach *flight* (``None``: unrecorded) to the broker and every
        site; one ``site`` record per site, read from the site itself."""
        self.flight = flight
        for site in self.sites:
            site.flight = flight
            if flight is not None:
                heuristic = site.engine.heuristic
                flight.site_open(
                    site.clock.now,
                    site.site_id,
                    capacity=site.engine.processors.count,
                    heuristic=heuristic.name,
                    threshold=getattr(site.admission, "threshold", None),
                    discount_rate=getattr(site.admission, "discount_rate", None),
                    heuristic_params=heuristic_params(heuristic),
                )

    def close_books(self) -> None:
        """One ``site_summary`` per site: the audit's reconciliation anchor."""
        if self.flight is None:
            return
        for site in self.sites:
            self.flight.site_summary(
                site.clock.now,
                site.site_id,
                revenue=site.revenue,
                contracts=site.contracts_signed,
                quotes_issued=site.quotes_issued,
                quotes_declined=site.quotes_declined,
            )

    def negotiate(
        self, bid: TaskBid, sites: Optional[Sequence[MarketSite]] = None
    ) -> NegotiationOutcome:
        """Run one sealed-bid round for *bid* and award the winner (if any).

        *sites* restricts the round to a subset of the broker's sites
        (default: all of them) — a failover re-bid skips the site that
        just failed its task this way.  This is the market's only
        negotiation: every quote is gathered, every award made (the
        winning site journals it), every ``bid`` record written and every
        negotiation hook of the sites' observer called here (span id: the
        round's ordinal).
        """
        nid = self.negotiations
        self.negotiations += 1
        clock = self.sites[0].clock
        obs = self.sites[0].engine.obs
        if self.flight is not None:
            self.flight.bid(clock.now, bid)
        if obs is not None:
            obs.negotiation_started(nid, clock.now)
        quotes: list[ServerBid] = []
        quote_sites: list[MarketSite] = []
        for site in self.sites if sites is None else sites:
            quote = site.quote(bid)
            if obs is not None:
                obs.negotiation_quoted(nid, site.site_id, declined=quote is None, now=clock.now)
            if quote is not None:
                quotes.append(quote)
                quote_sites.append(site)

        index = self.strategy(bid, quotes)
        if index is None:
            self.rejections += 1
            if obs is not None:
                obs.negotiation_finished(nid, clock.now, contracted=False)
            return NegotiationOutcome(bid=bid, quotes=quotes, winner=None, contract=None)

        winner = quotes[index]
        if self.vickrey and len(quotes) > 1:
            second = max(
                q.expected_price for i, q in enumerate(quotes) if i != index
            )
            winner = ServerBid(
                site_id=winner.site_id,
                bid_id=winner.bid_id,
                expected_completion=winner.expected_completion,
                expected_price=min(winner.expected_price, second),
                expected_slack=winner.expected_slack,
            )
        contract = quote_sites[index].award(bid, winner)
        if obs is not None:
            obs.negotiation_finished(
                nid, clock.now, contracted=True, task_id=contract.task_tid, site_id=winner.site_id
            )
        return NegotiationOutcome(bid=bid, quotes=quotes, winner=winner, contract=contract)
