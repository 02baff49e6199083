"""EconomyResult's books cross-checked against an audited flight recording.

The recorder and the economy aggregate the same run through entirely
separate code paths (event stream vs. site objects); these tests pin
that the two sets of books agree — and that ``summary()`` exposes the
per-site breakdowns the ledger reconciles against.
"""

import json

import pytest

from repro.audit import audit_recording


class TestSummaryShape:
    def test_summary_is_json_ready_and_complete(self, recorded_market):
        _, result = recorded_market
        summary = result.summary()
        assert set(summary) == {
            "bids",
            "accepted",
            "rejected",
            "total_revenue",
            "revenue_by_site",
            "contracts_by_site",
            "on_time_rates",
        }
        json.dumps(summary)
        assert summary["bids"] == summary["accepted"] + summary["rejected"]
        assert set(summary["revenue_by_site"]) == {"site-0", "site-1"}
        assert summary["total_revenue"] == pytest.approx(
            sum(summary["revenue_by_site"].values())
        )


class TestBooksAgreeWithTheRecording:
    def test_counts_match_the_audited_ledger(self, recorded_market):
        flight, result = recorded_market
        report = audit_recording(flight.recording())
        assert report.ok
        summary = result.summary()
        assert report.counts["bids"] == summary["bids"]
        assert report.counts["awards"] == summary["accepted"]
        assert report.counts["settlements"] == summary["accepted"]
        assert report.counts["total_revenue"] == pytest.approx(summary["total_revenue"])

    def test_revenue_by_site_matches_settlement_events(self, recorded_market):
        flight, result = recorded_market
        by_site: dict = {}
        for event in flight.recording().of_kind("settlement"):
            by_site[event["site_id"]] = by_site.get(event["site_id"], 0.0) + event["price"]
        for site_id, revenue in result.summary()["revenue_by_site"].items():
            assert by_site.get(site_id, 0.0) == pytest.approx(revenue)

    def test_contracts_by_site_matches_award_events(self, recorded_market):
        flight, result = recorded_market
        by_site: dict = {}
        for event in flight.recording().of_kind("award"):
            by_site[event["site_id"]] = by_site.get(event["site_id"], 0) + 1
        assert by_site == result.summary()["contracts_by_site"]

    def test_rejections_are_bids_with_no_issued_quote_taken(self, recorded_market):
        flight, result = recorded_market
        recording = flight.recording()
        awarded = {e["bid_id"] for e in recording.of_kind("award")}
        bids = {e["bid_id"] for e in recording.of_kind("bid")}
        assert len(bids - awarded) == result.rejected
