"""Tests for the latency-aware negotiation protocol."""

import math

import pytest

from repro.errors import MarketError
from repro.market import MarketSite
from repro.market.protocol import LatentNegotiator
from repro.scheduling import FirstPrice
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.tasks import TaskBid


def make_site(sim, site_id="s", processors=1, threshold=-math.inf):
    return MarketSite(
        sim,
        site_id=site_id,
        processors=processors,
        heuristic=FirstPrice(),
        admission=SlackAdmission(threshold=threshold, discount_rate=0.0),
    )


def make_bid(runtime=10.0, value=100.0, decay=1.0):
    return TaskBid(runtime=runtime, value=value, decay=decay, client_id="c")


class TestZeroLatency:
    def test_transcript_records_all_phases(self):
        sim = Simulator()
        negotiator = LatentNegotiator(sim, [make_site(sim)], latency=0.0)
        record = negotiator.negotiate(make_bid())
        sim.run()
        assert record.request is not None
        assert len(record.responses) == 1
        assert record.award is not None
        assert record.accepted
        assert record.contract.settled
        assert record.round_trips == 2

    def test_decline_recorded_with_none_quote(self):
        sim = Simulator()
        negotiator = LatentNegotiator(sim, [make_site(sim, threshold=1e12)])
        record = negotiator.negotiate(make_bid())
        sim.run()
        assert record.responses[0].quote is None
        assert not record.accepted
        assert negotiator.accepted == 0

    def test_zero_latency_matches_instant_broker_promise(self):
        sim = Simulator()
        site = make_site(sim)
        negotiator = LatentNegotiator(sim, [site])
        record = negotiator.negotiate(make_bid())
        sim.run()
        assert record.contract.on_time
        assert negotiator.stale_promise_rate == 0.0


    def test_zero_latency_negotiation_completes_inside_its_start_event(self):
        """No latency, no faults: the coroutine never sleeps, so the one
        event ``negotiate`` schedules carries the whole exchange."""
        sim = Simulator()
        negotiator = LatentNegotiator(sim, [make_site(sim)], latency=0.0)
        record = negotiator.negotiate(make_bid())
        assert sim.pending_count == 1 and record.request is None
        sim.step()
        assert record.accepted and record.award.sent_at == 0.0
        # what is pending now is the task's completion, not the protocol
        assert sim.pending_count == 1 and sim.events_fired == 1
        sim.run()
        assert record.contract.settled and sim.events_fired == 2


class TestLatency:
    def test_messages_take_time_and_latency_decays_price(self):
        sim = Simulator()
        negotiator = LatentNegotiator(sim, [make_site(sim)], latency=5.0)
        record = negotiator.negotiate(make_bid(decay=1.0))
        sim.run()
        assert record.request.sent_at == 0.0
        assert record.responses[0].sent_at == 5.0
        assert record.award.sent_at == 15.0
        # execution starts when the award lands; the value function is
        # anchored at the release (t=0), so the 15 units of protocol
        # latency count as delay
        assert record.contract.actual_completion == pytest.approx(25.0)
        assert record.contract.actual_price == pytest.approx(100.0 - 15.0)

    def test_concurrent_negotiations_stale_each_others_quotes(self):
        # both clients are quoted against the same empty node at t=2
        # (promise: completion 12); the awards land at t=6, by which time
        # each promise is stale — and the second also queues behind the first
        sim = Simulator()
        site = make_site(sim, processors=1)
        negotiator = LatentNegotiator(sim, [site], latency=2.0)
        r1 = negotiator.negotiate(make_bid())
        r2 = negotiator.negotiate(make_bid())
        sim.run()
        assert r1.accepted and r2.accepted
        promised = {r.contract.promised_completion for r in (r1, r2)}
        assert promised == {12.0}
        completions = sorted(
            r.contract.actual_completion for r in (r1, r2)
        )
        assert completions == [pytest.approx(16.0), pytest.approx(26.0)]
        assert negotiator.stale_promise_rate == pytest.approx(1.0)

    def test_latency_validation(self):
        sim = Simulator()
        with pytest.raises(MarketError):
            LatentNegotiator(sim, [make_site(sim)], latency=-1.0)
        with pytest.raises(MarketError):
            LatentNegotiator(sim, [], latency=0.0)

    def test_yield_suffers_as_latency_grows(self):
        def revenue_with(latency):
            sim = Simulator()
            site = make_site(sim, processors=2)
            negotiator = LatentNegotiator(sim, [site], latency=latency)
            for i in range(6):
                sim.schedule_at(float(i), negotiator.negotiate, make_bid(decay=2.0))
            sim.run()
            return site.revenue

        fast = revenue_with(0.0)
        slow = revenue_with(20.0)
        assert slow < fast
