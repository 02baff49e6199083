"""Unit tests for MarketSite quoting, awarding, and settlement."""

import math

import pytest

from repro.errors import MarketError
from repro.scheduling import FirstPrice, FirstReward
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.market import DiscountedPricing, MarketSite
from repro.tasks import TaskBid


def make_site(sim=None, threshold=0.0, site_id="s1", processors=1, **kwargs):
    sim = sim or Simulator()
    return MarketSite(
        sim,
        site_id=site_id,
        processors=processors,
        heuristic=FirstPrice(),
        admission=SlackAdmission(threshold=threshold, discount_rate=0.0),
        **kwargs,
    )


def make_bid(runtime=10.0, value=100.0, decay=2.0, bound=None):
    return TaskBid(runtime=runtime, value=value, decay=decay, bound=bound, client_id="c")


class TestQuote:
    def test_idle_site_quotes_immediate_completion(self):
        site = make_site()
        quote = site.quote(make_bid())
        assert quote is not None
        assert quote.site_id == "s1"
        assert quote.expected_completion == 10.0
        assert quote.expected_price == 100.0  # bid-value pricing, no delay
        assert site.quotes_issued == 1

    def test_quote_reflects_queue_depth(self):
        site = make_site()
        awarded = make_bid()
        site.award(awarded, site.quote(awarded))
        # a second quote now sees the running task
        second = site.quote(make_bid())
        assert second.expected_completion == pytest.approx(20.0)
        assert second.expected_price == pytest.approx(100.0 - 2.0 * 10.0)

    def test_quote_declined_below_threshold(self):
        site = make_site(threshold=1e6)
        assert site.quote(make_bid()) is None
        assert site.quotes_declined == 1

    def test_quote_does_not_reserve_capacity(self):
        site = make_site()
        site.quote(make_bid())
        site.quote(make_bid())
        assert site.engine.queue_length == 0
        assert site.engine.running_count == 0

    def test_discounted_pricing(self):
        site = make_site(pricing=DiscountedPricing(fraction=0.5))
        quote = site.quote(make_bid())
        assert quote.expected_price == pytest.approx(50.0)


class TestAwardAndSettle:
    def test_on_time_contract_pays_quoted_price(self):
        sim = Simulator()
        site = make_site(sim)
        bid = make_bid()
        contract = site.award(bid, site.quote(bid))
        sim.run()
        assert contract.settled
        assert contract.actual_price == 100.0
        assert contract.on_time
        assert site.revenue == 100.0
        assert site.open_contracts == 0
        assert site.on_time_rate == 1.0

    def test_delayed_contract_pays_decayed_price(self):
        sim = Simulator()
        site = make_site(sim)
        b1, b2 = make_bid(), make_bid()
        site.award(b1, site.quote(b1))
        c2 = site.award(b2, site.quote(b2))  # queued behind b1
        sim.run()
        # b2 completes at 20: 10 late from its release at t=0
        assert c2.actual_price == pytest.approx(80.0)
        assert site.revenue == pytest.approx(180.0)

    def test_award_to_wrong_site_rejected(self):
        sim = Simulator()
        a = make_site(sim, site_id="a")
        b = make_site(sim, site_id="b")
        bid = make_bid()
        quote_from_a = a.quote(bid)
        with pytest.raises(MarketError):
            b.award(bid, quote_from_a)

    def test_breach_settlement_for_discarded_task(self):
        sim = Simulator()
        site = make_site(sim, threshold=-math.inf, discard_expired=True)
        blocker = make_bid(runtime=100.0, value=1000.0, decay=0.1)
        site.award(blocker, site.quote(blocker))
        # bounded task that will expire while queued (expiry delay 5)
        doomed = make_bid(runtime=5.0, value=10.0, decay=2.0, bound=0.0)
        contract = site.award(doomed, site.quote(doomed))
        sim.run()
        assert contract.settled
        assert contract.actual_price == 0.0  # floor of a zero-bounded penalty
        assert site.revenue == pytest.approx(1000.0)

    def test_release_time_anchors_the_value_function(self):
        # a bid released in the past decays from its release, not from award
        sim = Simulator()
        site = make_site(sim)
        sim.run(until=20.0)
        bid = TaskBid(runtime=10.0, value=100.0, decay=2.0, client_id="c",
                      released_at=0.0)
        quote = site.quote(bid)
        # completes at 30 => 20 units of delay against the t=0 release
        assert quote.expected_price == pytest.approx(100.0 - 2.0 * 20.0)
        contract = site.award(bid, quote)
        sim.run()
        assert contract.actual_price == pytest.approx(60.0)

    def test_future_release_rejected(self):
        sim = Simulator()
        site = make_site(sim)
        bid = TaskBid(runtime=10.0, value=100.0, decay=1.0, client_id="c",
                      released_at=5.0)
        with pytest.raises(MarketError):
            site.quote(bid)

    def test_revenue_can_go_negative_with_unbounded_penalties(self):
        sim = Simulator()
        site = make_site(sim, threshold=-math.inf)
        blocker = make_bid(runtime=100.0, value=100.0, decay=0.0)
        site.award(blocker, site.quote(blocker))
        late = make_bid(runtime=10.0, value=10.0, decay=5.0)  # unbounded
        contract = site.award(late, site.quote(late))
        sim.run()
        # late completes at 110 => delay 100 => price 10 - 500
        assert contract.actual_price == pytest.approx(-490.0)
        assert site.revenue == pytest.approx(100.0 - 490.0)
