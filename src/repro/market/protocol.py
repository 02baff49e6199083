"""The negotiation protocol as explicit messages, with optional latency.

The default :class:`~repro.market.broker.Broker` negotiates instantly —
the paper notes the protocol "may consist of just this one pair of
exchanges".  Real grids have wire latency, and latency matters: a quote
reflects the site's candidate schedule *at quote time*, so by the time
the award lands the schedule may have moved (quotes go stale and
promised completions get missed).

:class:`LatentNegotiator` runs the same two-phase exchange as
coroutines on the DES kernel: request → (latency) → quotes →
(selection) → (latency) → award.  Message dataclasses make the exchange
inspectable; tests assert both the happy path and the stale-quote
effect.

With a :class:`~repro.faults.MessageFaults` model attached
(``repro.faults`` reliability subsystem), any one-way message — the
request, each site's quote, the award — can be lost in flight.  The
client recovers with timeouts and bounded exponential-backoff
retransmission; a negotiation whose retry budget runs dry fails (no
contract) — unless a :class:`~repro.resilience.ResilienceManager` is
attached, in which case the failure is reported for failover re-bidding
within the manager's budget.

The stale-quote exposure is bounded by quote TTLs: a site built with
``quote_ttl`` stamps ``expires_at`` on its quotes and refuses awards
past it, and the negotiator *revalidates* — re-solicits the winner's
current quote — instead of landing an award against a schedule that has
since changed.  Sites without a TTL (the default) keep the original
open-ended-quote semantics, where each retry deepens the stale-quote
effect the latency model makes observable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import MarketError
from repro.market.broker import SelectionStrategy, best_yield
from repro.market.sites import MarketSite
from repro.sim.clock import SimClock
from repro.sim.coroutine import Coroutine
from repro.sim.kernel import Simulator
from repro.tasks.bid import ServerBid, TaskBid
from repro.tasks.contract import Contract

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults.messages import MessageFaults
    from repro.obs.instrument import Observability
    from repro.resilience.manager import ResilienceManager

_negotiation_ids = itertools.count()


@dataclass(frozen=True)
class BidRequest:
    """Client → site: the sealed bid."""

    negotiation_id: int
    bid: TaskBid
    sent_at: float


@dataclass(frozen=True)
class BidResponse:
    """Site → client: a quote, or a decline (quote=None)."""

    negotiation_id: int
    site_id: str
    quote: Optional[ServerBid]
    sent_at: float


@dataclass(frozen=True)
class Award:
    """Client → winning site: accept the quoted terms."""

    negotiation_id: int
    site_id: str
    quote: ServerBid
    sent_at: float


@dataclass
class NegotiationRecord:
    """Full transcript of one latent negotiation."""

    negotiation_id: int
    request: Optional[BidRequest] = None
    responses: list[BidResponse] = field(default_factory=list)
    award: Optional[Award] = None
    contract: Optional[Contract] = None
    lost_messages: int = 0  # messages dropped in flight (any hop)
    retries: int = 0  # retransmissions after a timeout
    requotes: int = 0  # expired quotes revalidated before the award
    failure_reason: str = ""  # why no contract formed ("" on success)

    @property
    def accepted(self) -> bool:
        return self.contract is not None

    @property
    def round_trips(self) -> int:
        return (1 if self.request else 0) + (1 if self.award else 0)


class LatentNegotiator:
    """Two-phase negotiation with symmetric one-way message latency.

    Each ``negotiate`` call spawns a coroutine: the request takes
    ``latency`` to reach the sites, quotes take ``latency`` to return,
    and the award another ``latency`` to land — 3 one-way hops before
    the task enters the winner's schedule.
    """

    def __init__(
        self,
        sim: Simulator,
        sites: Sequence[MarketSite],
        latency: float = 0.0,
        strategy: SelectionStrategy = best_yield,
        faults: "Optional[MessageFaults]" = None,
        obs: "Optional[Observability]" = None,
        resilience: "Optional[ResilienceManager]" = None,
    ) -> None:
        if not sites:
            raise MarketError("negotiator requires at least one site")
        if latency < 0:
            raise MarketError(f"latency must be >= 0, got {latency!r}")
        self.sim = sim
        self.clock = SimClock(sim)
        self.sites = list(sites)
        self.latency = float(latency)
        self.strategy = strategy
        self.faults = faults
        self.obs = obs
        #: optional :class:`~repro.resilience.ResilienceManager`: failed
        #: negotiations (retry budget exhausted) are reported to it so it
        #: can re-bid the task within its failover budget
        self.resilience = resilience
        self.records: list[NegotiationRecord] = []

    def negotiate(self, bid: TaskBid) -> NegotiationRecord:
        """Start one negotiation; returns its (live) transcript record.

        The bid's release time is anchored to *now* when unset, so the
        whole protocol latency counts as delay against the client's
        value function.
        """
        if bid.released_at is None:
            from dataclasses import replace

            bid = replace(bid, released_at=self.sim.now)
        record = NegotiationRecord(negotiation_id=next(_negotiation_ids))
        self.records.append(record)
        if self.obs is not None:
            self.obs.negotiation_started(record.negotiation_id, self.sim.now)
        Coroutine(
            self.sim, self._run(bid, record), name=f"negotiation-{record.negotiation_id}"
        )
        return record

    def _lost(self, record: NegotiationRecord) -> bool:
        """One in-flight message fate; False always when faults are off."""
        if self.faults is None:
            return False
        lost = self.faults.lost()
        if lost:
            record.lost_messages += 1
            if self.obs is not None:
                self.obs.message_lost()
        return lost

    def _finish(
        self, record: NegotiationRecord, reason: str = ""
    ) -> NegotiationRecord:
        """Close the negotiation's telemetry span (success or failure)."""
        record.failure_reason = "" if record.contract is not None else reason
        if self.obs is not None:
            contract = record.contract
            self.obs.negotiation_finished(
                record.negotiation_id,
                self.sim.now,
                contracted=contract is not None,
                task_id=contract.task_tid if contract is not None else None,
                site_id=contract.site_id if contract is not None else None,
            )
        if record.contract is None and self.resilience is not None:
            # a dried-up retry budget is recoverable: the manager may
            # re-bid the task (bounded by its failover budget)
            self.resilience.note_negotiation_failure(record, self)
        return record

    async def _run(self, bid: TaskBid, record: NegotiationRecord) -> NegotiationRecord:
        record.request = BidRequest(record.negotiation_id, bid, self.sim.now)
        attempt = 0  # one retry budget across the whole negotiation

        # -- phase 1: request out, quotes back (with retransmission) ----
        while True:
            request_lost = self._lost(record)
            if self.latency:
                await self.clock.sleep(self.latency)  # request in flight

            quotes: list[ServerBid] = []
            quote_sites: list[MarketSite] = []
            any_response = False
            if not request_lost:
                for site in self.sites:
                    quote = site.quote(bid)
                    if self._lost(record):
                        continue  # this site's response vanished in flight
                    any_response = True
                    record.responses.append(
                        BidResponse(record.negotiation_id, site.site_id, quote, self.sim.now)
                    )
                    if self.obs is not None:
                        self.obs.negotiation_quoted(
                            record.negotiation_id, site.site_id, quote is None, self.sim.now
                        )
                    if quote is not None:
                        quotes.append(quote)
                        quote_sites.append(site)

            if self.latency:
                await self.clock.sleep(self.latency)  # responses in flight

            if request_lost or not any_response:
                # silence: the client cannot tell a lost request from
                # lost responses — wait out the timeout and retransmit
                if self.faults is None or attempt >= self.faults.max_retries:
                    return self._finish(record, reason="retries-exhausted")
                await self.clock.sleep(self.faults.retry_delay(attempt))
                self.faults.note_retry()
                record.retries += 1
                if self.obs is not None:
                    self.obs.message_retry()
                attempt += 1
                continue
            break

        index = self.strategy(bid, quotes)
        if index is None:
            return self._finish(record, reason="no-quotes")

        # -- phase 2: award (with retransmission) -----------------------
        winner = quotes[index]
        winner_site = quote_sites[index]
        while True:
            award_lost = self._lost(record)
            if self.latency:
                await self.clock.sleep(self.latency)  # award in flight

            if not award_lost:
                if winner.expired(self.sim.now):
                    # the quote's TTL lapsed in flight: the site would
                    # refuse the award, so revalidate against the
                    # winner's *current* schedule instead of landing a
                    # promise it computed for a schedule that has moved
                    record.requotes += 1
                    if self.obs is not None:
                        self.obs.quote_expired()
                    fresh = winner_site.quote(bid)
                    if fresh is not None:
                        record.responses.append(
                            BidResponse(
                                record.negotiation_id,
                                winner_site.site_id,
                                fresh,
                                self.sim.now,
                            )
                        )
                    if fresh is None:
                        return self._finish(record, reason="quote-expired")
                    winner = fresh
                record.award = Award(
                    record.negotiation_id, winner.site_id, winner, self.sim.now
                )
                record.contract = winner_site.award(bid, winner)
                return self._finish(record)

            # the site never saw the award; back off and resend (the
            # quote goes staler with every round trip)
            if attempt >= self.faults.max_retries:
                return self._finish(record, reason="retries-exhausted")
            await self.clock.sleep(self.faults.retry_delay(attempt))
            self.faults.note_retry()
            record.retries += 1
            if self.obs is not None:
                self.obs.message_retry()
            attempt += 1

    # ------------------------------------------------------------------
    @property
    def accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def messages_lost(self) -> int:
        return sum(r.lost_messages for r in self.records)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    @property
    def total_requotes(self) -> int:
        return sum(r.requotes for r in self.records)

    @property
    def stale_promise_rate(self) -> float:
        """Fraction of settled contracts that missed their promised
        completion — the cost of negotiating over a slow wire."""
        settled = [
            r.contract for r in self.records if r.contract is not None and r.contract.settled
        ]
        if not settled:
            return 0.0
        return sum(1 for c in settled if not c.on_time) / len(settled)
