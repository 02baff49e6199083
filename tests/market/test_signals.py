"""Tests for the price board (§2's published contract summaries)."""

import math

import pytest

from repro.errors import MarketError
from repro.market import Broker, MarketSite, PriceBoard
from repro.scheduling import FirstPrice
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.tasks import TaskBid


def market_with_board(processors=1, window=256):
    sim = Simulator()
    board = PriceBoard(window=window)
    site = MarketSite(
        sim,
        site_id="s1",
        processors=processors,
        heuristic=FirstPrice(),
        admission=SlackAdmission(threshold=-math.inf, discount_rate=0.0),
        price_board=board,
    )
    return sim, site, board


def make_bid(runtime=10.0, value=100.0, decay=1.0):
    return TaskBid(runtime=runtime, value=value, decay=decay, client_id="c")


class TestPublication:
    def test_settlements_auto_published(self):
        sim, site, board = market_with_board()
        bid = make_bid()
        site.award(bid, site.quote(bid))
        sim.run()
        points = board.recent()
        assert len(points) == 1
        assert points[0].site_id == "s1"
        assert points[0].unit_price == pytest.approx(10.0)  # 100 / 10
        assert points[0].on_time

    def test_unsettled_contract_rejected(self):
        sim, site, board = market_with_board()
        bid = make_bid()
        contract = site.award(bid, site.quote(bid))
        with pytest.raises(MarketError):
            board.publish(contract)  # not settled until sim.run()

    def test_late_settlement_lowers_unit_price(self):
        sim, site, board = market_with_board()
        # quote both bids against the empty schedule, then award both:
        # the second promise (completion at 10) is now stale and missed
        bids = [make_bid(), make_bid()]
        quotes = [site.quote(b) for b in bids]
        for bid, quote in zip(bids, quotes):
            site.award(bid, quote)
        sim.run()
        prices = [p.unit_price for p in board.recent()]
        assert prices[0] == pytest.approx(10.0)
        assert prices[1] == pytest.approx(9.0)  # completes 10 late => 90/10
        assert board.on_time_rate() == pytest.approx(0.5)

    def test_window_evicts_oldest(self):
        sim, site, board = market_with_board(processors=4, window=2)
        for _ in range(3):
            bid = make_bid()
            site.award(bid, site.quote(bid))
        sim.run()
        assert board.published == 3
        assert len(board.recent()) == 2

    def test_window_validation(self):
        with pytest.raises(MarketError):
            PriceBoard(window=0)


class TestQueries:
    def test_empty_board_returns_none(self):
        board = PriceBoard()
        assert board.mean_unit_price() is None
        assert board.on_time_rate() is None
        assert board.site_summary() == {}

    def test_per_site_filtering(self):
        sim = Simulator()
        board = PriceBoard()
        sites = [
            MarketSite(
                sim, site_id=name, processors=1, heuristic=FirstPrice(),
                admission=SlackAdmission(threshold=-math.inf, discount_rate=0.0),
                price_board=board,
            )
            for name in ("a", "b")
        ]
        for site, value in zip(sites, (100.0, 50.0)):
            bid = make_bid(value=value)
            site.award(bid, site.quote(bid))
        sim.run()
        assert board.mean_unit_price("a") == pytest.approx(10.0)
        assert board.mean_unit_price("b") == pytest.approx(5.0)
        assert board.mean_unit_price() == pytest.approx(7.5)
        summary = board.site_summary()
        assert set(summary) == {"a", "b"}
        assert summary["a"]["settlements"] == 1


class TestRecorderFeed:
    """The board rebuilt from a flight recording (§2, derived offline)."""

    def test_publish_point_feeds_the_window(self):
        from repro.market.signals import PricePoint

        board = PriceBoard(window=2)
        for i in range(3):
            point = PricePoint(time=float(i), site_id="s", unit_price=1.0 + i, on_time=True)
            assert board.publish_point(point) is point
        assert board.published == 3
        assert [p.unit_price for p in board.recent()] == [2.0, 3.0]

    def test_board_from_recording_matches_the_settled_economy(self, recorded_market):
        from repro.market.signals import board_from_recording

        flight, result = recorded_market
        recording = flight.recording()
        board = board_from_recording(recording, window=10_000)
        settlements = recording.of_kind("settlement")
        assert board.published == len(settlements) == result.accepted
        for site_id, count in result.summary()["contracts_by_site"].items():
            assert len(board.recent(site_id)) == count
        on_time = sum(1 for e in settlements if e["on_time"])
        assert board.on_time_rate() == pytest.approx(on_time / len(settlements))

    def test_board_from_recording_respects_the_window(self, recorded_market):
        from repro.market.signals import board_from_recording

        flight, result = recorded_market
        board = board_from_recording(flight.recording(), window=5)
        assert board.published == result.accepted
        assert len(board.recent()) == 5
        # the retained points are the LAST five settlements, in order
        tail = flight.recording().of_kind("settlement")[-5:]
        assert [p.unit_price for p in board.recent()] == pytest.approx(
            [e["price"] / e["runtime"] for e in tail]
        )
