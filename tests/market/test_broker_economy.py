"""Tests for broker negotiation strategies and the multi-site economy."""

import math

import pytest

from repro.errors import MarketError
from repro.market import (
    Broker,
    DiscountedPricing,
    MarketSite,
    best_surplus,
    best_yield,
    earliest_completion,
    run_market,
)
from repro.market.economy import MarketEconomy
from repro.scheduling import FirstPrice, FirstReward
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.tasks import TaskBid
from repro.workload import economy_spec, generate_trace


def make_site(sim, site_id, processors=1, threshold=-math.inf, **kwargs):
    return MarketSite(
        sim,
        site_id=site_id,
        processors=processors,
        heuristic=FirstPrice(),
        admission=SlackAdmission(threshold=threshold, discount_rate=0.0),
        **kwargs,
    )


def make_bid(runtime=10.0, value=100.0, decay=2.0):
    return TaskBid(runtime=runtime, value=value, decay=decay, client_id="c")


class TestBroker:
    def test_requires_sites_with_unique_ids(self):
        with pytest.raises(MarketError):
            Broker(sites=[])
        sim = Simulator()
        with pytest.raises(MarketError):
            Broker(sites=[make_site(sim, "x"), make_site(sim, "x")])

    def test_picks_idle_site_over_busy_one(self):
        sim = Simulator()
        busy = make_site(sim, "busy")
        idle = make_site(sim, "idle")
        warm = make_bid(runtime=50.0)
        busy.award(warm, busy.quote(warm))
        broker = Broker(sites=[busy, idle])
        outcome = broker.negotiate(make_bid())
        assert outcome.accepted
        assert outcome.winner.site_id == "idle"
        assert len(outcome.quotes) == 2

    def test_rejected_when_no_site_quotes(self):
        sim = Simulator()
        broker = Broker(sites=[make_site(sim, "a", threshold=1e9)])
        outcome = broker.negotiate(make_bid())
        assert not outcome.accepted
        assert outcome.winner is None
        assert broker.rejections == 1

    def test_strategies_pick_earliest_when_prices_equal(self):
        sim = Simulator()
        busy = make_site(sim, "busy")
        idle = make_site(sim, "idle")
        warm = make_bid(runtime=50.0)
        busy.award(warm, busy.quote(warm))
        bid = make_bid()
        quotes = [busy.quote(bid), idle.quote(bid)]
        for strategy in (earliest_completion, best_yield, best_surplus):
            assert quotes[strategy(bid, quotes)].site_id == "idle"

    def test_strategies_handle_empty_quotes(self):
        bid = make_bid()
        for strategy in (earliest_completion, best_yield, best_surplus):
            assert strategy(bid, []) is None

    def test_best_surplus_prefers_discount(self):
        sim = Simulator()
        full = make_site(sim, "full")
        cheap = make_site(sim, "cheap", pricing=DiscountedPricing(fraction=0.5))
        bid = make_bid()
        quotes = [full.quote(bid), cheap.quote(bid)]
        assert quotes[best_surplus(bid, quotes)].site_id == "cheap"

    def test_vickrey_with_single_quote_keeps_price(self):
        sim = Simulator()
        broker = Broker(sites=[make_site(sim, "solo")], vickrey=True)
        outcome = broker.negotiate(make_bid())
        # no second price to charge: the winner pays its own quote
        assert outcome.winner.expected_price == pytest.approx(100.0)

    def test_vickrey_never_raises_the_price(self):
        sim = Simulator()
        # the cheaper site wins under best_surplus; vickrey would reprice
        # at the pricier quote — the min() keeps the winner's own price
        full = make_site(sim, "full")
        cheap = make_site(sim, "cheap", pricing=DiscountedPricing(fraction=0.5))
        broker = Broker(sites=[full, cheap], strategy=best_surplus, vickrey=True)
        outcome = broker.negotiate(make_bid())
        assert outcome.winner.site_id == "cheap"
        assert outcome.winner.expected_price <= 50.0 + 1e-9

    def test_vickrey_charges_second_price(self):
        sim = Simulator()
        # site "a" quotes full value; "b" quotes 60% of it
        a = make_site(sim, "a")
        b = make_site(sim, "b", pricing=DiscountedPricing(fraction=0.6))
        broker = Broker(sites=[a, b], strategy=earliest_completion, vickrey=True)
        outcome = broker.negotiate(make_bid())
        # both sites idle: earliest-completion picks "a" (first in list);
        # vickrey reprices at the second-best quote (60)
        assert outcome.winner.site_id == "a"
        assert outcome.winner.expected_price == pytest.approx(60.0)


class TestRoundOverASubset:
    """``negotiate(bid, sites)`` is the same round over fewer sites: it
    counts, prices and journals exactly like a full one."""

    def _market(self):
        from repro.obs.flight import FlightRecorder

        sim = Simulator()
        flight = FlightRecorder()
        sites = [
            make_site(sim, "a", processors=2),
            make_site(sim, "b", pricing=DiscountedPricing(fraction=0.6)),
            make_site(sim, "c", threshold=1e9),  # always declines
        ]
        broker = Broker(sites=sites, strategy=earliest_completion, vickrey=True)
        broker.open_books(flight)
        return sites, broker, flight

    def test_only_the_named_sites_are_asked(self):
        sites, broker, flight = self._market()
        outcome = broker.negotiate(make_bid(), sites[1:])
        assert outcome.winner.site_id == "b"
        assert [q.site_id for q in outcome.quotes] == ["b"]
        assert sites[0].quotes_issued == sites[0].quotes_declined == 0
        assert (broker.negotiations, broker.rejections) == (1, 0)
        kinds = [e["kind"] for e in flight.events]
        assert kinds == ["site"] * 3 + ["bid", "quote", "quote", "award"]
        assert [e["site_id"] for e in flight.events[4:6]] == ["b", "c"]

    def test_a_subset_round_journals_like_a_full_one(self):
        from repro.audit import audit_recording

        sites, broker, flight = self._market()
        full = broker.negotiate(make_bid())
        subset = broker.negotiate(make_bid(), sites[:2])
        # same selection, same second-price rule either way
        assert full.winner.site_id == subset.winner.site_id == "a"
        assert full.winner.expected_price == pytest.approx(60.0)
        assert (broker.negotiations, broker.rejections) == (2, 0)
        sites[0].sim.run()
        recording = flight.recording()
        assert len(recording.of_kind("bid")) == len(recording.of_kind("award")) == 2
        assert audit_recording(recording).ok

    def test_a_subset_nobody_quotes_from_is_one_rejection(self):
        sites, broker, flight = self._market()
        for candidates in ([sites[2]], []):
            outcome = broker.negotiate(make_bid(), candidates)
            assert not outcome.accepted
        assert (broker.negotiations, broker.rejections) == (2, 2)
        kinds = [e["kind"] for e in flight.events]
        assert kinds == ["site"] * 3 + ["bid", "quote", "bid"]


class TestOneValueFunctionPerBid:
    """The bid is frozen, so the value function its tuple spells is built
    (and validated) once, at construction — not per quote."""

    def test_a_four_site_negotiation_builds_it_once(self, monkeypatch):
        from repro.valuefn import LinearDecayValueFunction

        built = []
        real_init = LinearDecayValueFunction.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        sim = Simulator()
        broker = Broker(
            sites=[make_site(sim, f"s{i}", processors=2) for i in range(4)],
            strategy=best_yield,
        )
        monkeypatch.setattr(LinearDecayValueFunction, "__init__", spy)
        for n in range(1, 4):  # later bids probe populated pools too
            bid = make_bid(runtime=40.0, value=100.0 + n)
            outcome = broker.negotiate(bid)
            assert len(outcome.quotes) == 4 and outcome.accepted
            assert len(built) == n, built
            assert outcome.contract.vf is bid.value_function()
        assert best_surplus(bid, outcome.quotes) is not None
        assert len(built) == 3

    def test_a_bad_value_function_is_still_refused_at_construction(self):
        from repro.errors import ValueFunctionError

        for bad in ({"decay": -1.0}, {"value": math.inf}, {"decay": math.nan}):
            with pytest.raises(ValueFunctionError):
                TaskBid(**{"runtime": 10.0, "value": 100.0, "decay": 2.0, **bad})
        with pytest.raises(ValueFunctionError, match="floor above"):
            TaskBid(runtime=10.0, value=100.0, decay=2.0, bound=-200.0)

    def test_the_cache_is_not_part_of_the_bid(self):
        import dataclasses

        bid = make_bid()
        twin = dataclasses.replace(bid)
        assert twin == bid and hash(twin) == hash(bid)
        assert "_vf" not in repr(bid)
        moved = dataclasses.replace(bid, value=5.0)
        assert moved.value_function().value == 5.0


class TestEconomy:
    def test_trace_negotiated_end_to_end(self):
        sim = Simulator()
        sites = [make_site(sim, f"s{i}", processors=8) for i in range(3)]
        trace = generate_trace(economy_spec(n_jobs=150, load_factor=0.8, processors=24), seed=3)
        result = run_market(trace, sites)
        assert result.accepted == 150
        assert result.total_revenue > 0
        assert sum(result.summary()["contracts_by_site"].values()) == 150
        assert all(c.settled for s in sites for c in s.contracts)

    def test_admission_sheds_load_in_market(self):
        sim = Simulator()
        sites = [
            MarketSite(
                sim,
                site_id=f"s{i}",
                processors=4,
                heuristic=FirstReward(alpha=0.3, discount_rate=0.01),
                admission=SlackAdmission(threshold=180.0, discount_rate=0.01),
            )
            for i in range(2)
        ]
        trace = generate_trace(economy_spec(n_jobs=300, load_factor=4.0, processors=8), seed=4)
        result = run_market(trace, sites)
        assert result.rejected > 0
        assert result.accepted + result.rejected == 300

    def test_load_spreads_across_sites(self):
        sim = Simulator()
        sites = [make_site(sim, f"s{i}", processors=4) for i in range(4)]
        trace = generate_trace(economy_spec(n_jobs=200, load_factor=1.0, processors=16), seed=5)
        result = run_market(trace, sites)
        counts = result.summary()["contracts_by_site"]
        # broker balances via completion times: no site starves
        assert all(c > 0 for c in counts.values())
        assert max(counts.values()) < 200

    def test_sites_must_share_simulator(self):
        s1 = make_site(Simulator(), "a")
        s2 = make_site(Simulator(), "b")
        trace = generate_trace(economy_spec(n_jobs=5), seed=0)
        with pytest.raises(MarketError):
            run_market(trace, [s1, s2])

    def test_summary_fields(self):
        sim = Simulator()
        sites = [make_site(sim, "solo", processors=8)]
        trace = generate_trace(economy_spec(n_jobs=50, load_factor=0.5, processors=8), seed=6)
        result = run_market(trace, sites)
        summary = result.summary()
        assert summary["bids"] == 50
        assert summary["accepted"] + summary["rejected"] == 50
        assert "solo" in summary["revenue_by_site"]
        assert 0.0 <= summary["on_time_rates"]["solo"] <= 1.0
