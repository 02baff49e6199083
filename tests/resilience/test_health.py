"""Unit tests for the per-site EWMA health tracker."""

import pytest

from repro.errors import MarketError
from repro.resilience.health import (
    HARD_FAILURES,
    INITIAL_HEALTH,
    OUTCOME_SCORES,
    HealthTracker,
    SiteHealth,
)


class TestOutcomeTable:
    def test_scores_span_the_unit_interval(self):
        assert min(OUTCOME_SCORES.values()) == 0.0
        assert max(OUTCOME_SCORES.values()) == 1.0

    def test_hard_failures_score_zero(self):
        for outcome in HARD_FAILURES:
            assert OUTCOME_SCORES[outcome] == 0.0

    def test_completed_beats_late_beats_restart(self):
        assert (
            OUTCOME_SCORES["completed"]
            > OUTCOME_SCORES["late"]
            > OUTCOME_SCORES["restart"]
        )


class TestSiteHealth:
    def test_ewma_moves_toward_outcome_score(self):
        health = SiteHealth("s", initial=1.0)
        health.observe("breach", alpha=0.5)
        assert health.score == pytest.approx(0.5)
        health.observe("breach", alpha=0.5)
        assert health.score == pytest.approx(0.25)
        health.observe("completed", alpha=0.5)
        assert health.score == pytest.approx(0.625)

    def test_alpha_one_tracks_last_outcome_exactly(self):
        health = SiteHealth("s", initial=1.0)
        for outcome, expected in (("breach", 0.0), ("late", 0.6), ("completed", 1.0)):
            health.observe(outcome, alpha=1.0)
            assert health.score == pytest.approx(expected)

    def test_breach_rate_is_breach_indicator_ewma(self):
        health = SiteHealth("s", initial=1.0)
        health.observe("completed", alpha=0.5)
        assert health.breach_rate == 0.0
        health.observe("breach", alpha=0.5)
        assert health.breach_rate == pytest.approx(0.5)
        health.observe("restart", alpha=0.5)  # a failure, but not a breach
        assert health.breach_rate == pytest.approx(0.25)

    def test_counters_partition_events(self):
        health = SiteHealth("s", initial=1.0)
        for outcome in ("completed", "late", "restart", "breach", "breach"):
            health.observe(outcome, alpha=0.2)
        summary = health.summary()
        assert summary["events"] == 5
        assert summary["completions"] == 1
        assert summary["late"] == 1
        assert summary["restarts"] == 1
        assert summary["breaches"] == 2

    def test_unknown_outcome_raises(self):
        with pytest.raises(MarketError, match="unknown health outcome"):
            SiteHealth("s", initial=1.0).observe("vanished", alpha=0.2)


class TestHealthTracker:
    def test_unseen_site_reports_initial_score(self):
        tracker = HealthTracker()
        assert tracker.score("never-seen") == INITIAL_HEALTH
        assert tracker.breach_rate("never-seen") == 0.0
        assert tracker.events("never-seen") == 0

    def test_observe_is_per_site(self):
        tracker = HealthTracker()
        tracker.observe("a", "breach")
        tracker.observe("b", "completed")
        assert tracker.score("a") < tracker.score("b")
        assert tracker.events("a") == tracker.events("b") == 1

    def test_snapshot_is_sorted_and_complete(self):
        tracker = HealthTracker()
        tracker.observe("b", "completed")
        tracker.observe("a", "breach")
        snapshot = tracker.snapshot()
        assert list(snapshot) == ["a", "b"]
        assert snapshot["a"]["breaches"] == 1
