"""Tests for the Prometheus text renderer and RateWindow (repro.obs.prom)."""

import math

import pytest

from repro.obs import MetricsRegistry
from repro.obs.prom import (
    PROMETHEUS_CONTENT_TYPE,
    RateWindow,
    _metric_name,
    prometheus_text,
)


class TestMetricNames:
    def test_dots_and_dashes_become_underscores(self):
        assert _metric_name("tasks.completed") == "repro_tasks_completed"
        assert _metric_name("queue-depth") == "repro_queue_depth"

    def test_leading_digit_is_guarded(self):
        assert _metric_name("5xx.count") == "repro__5xx_count"


class TestPrometheusText:
    def test_content_type_is_the_0_0_4_text_format(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE

    def test_registry_snapshot_renders_each_instrument_type(self):
        registry = MetricsRegistry()
        registry.counter("bids.total").inc(3)
        registry.time_weighted("queue.depth").observe(7.0, 0.0)
        registry.histogram("latency.us").observe(10.0)
        registry.histogram("latency.us").observe(30.0)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE repro_bids_total counter" in text
        assert "repro_bids_total 3.0" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 7.0" in text
        assert "# TYPE repro_latency_us summary" in text
        assert "repro_latency_us_count 2.0" in text
        assert "repro_latency_us_sum 40.0" in text
        assert "repro_latency_us_mean 20.0" in text
        assert text.endswith("\n")

    def test_unwritten_gauges_are_skipped(self):
        registry = MetricsRegistry()
        registry.time_weighted("never.set")
        text = prometheus_text(registry.snapshot())
        assert "never_set" not in text

    def test_extra_gauges_skip_none_values(self):
        text = prometheus_text({}, extra_gauges={"service.bids_per_s": 0.5, "service.p50": None})
        assert "repro_service_bids_per_s 0.5" in text
        assert "p50" not in text

    def test_empty_snapshot_is_a_single_newline(self):
        assert prometheus_text({}) == "\n"

    def test_non_finite_values_use_prometheus_spellings(self):
        text = prometheus_text({}, extra_gauges={"a": math.inf, "b": -math.inf, "c": math.nan})
        assert "repro_a +Inf" in text
        assert "repro_b -Inf" in text
        assert "repro_c NaN" in text


class TestRateWindow:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            RateWindow(window=0.0)

    def test_empty_window_reports_nones_not_zero_division(self):
        snap = RateWindow(window=60.0).snapshot(now=100.0)
        assert snap == {
            "window_s": 60.0,
            "bids_per_s": 0.0,
            "acceptance_pct": None,
            "revenue_per_s": 0.0,
            "roundtrip_p50_us": None,
            "roundtrip_p95_us": None,
        }

    def test_rates_over_the_window(self):
        rates = RateWindow(window=10.0)
        rates.note_bid(1.0, accepted=True)
        rates.note_bid(2.0, accepted=True)
        rates.note_bid(3.0, accepted=False)
        rates.note_settlement(2.0, 50.0)
        snap = rates.snapshot(now=5.0)
        assert snap["bids_per_s"] == pytest.approx(0.3)
        assert snap["acceptance_pct"] == pytest.approx(200.0 / 3.0)
        assert snap["revenue_per_s"] == pytest.approx(5.0)

    def test_old_samples_are_evicted(self):
        rates = RateWindow(window=10.0)
        rates.note_bid(0.0, accepted=False)
        rates.note_settlement(0.0, 100.0)
        rates.note_bid(50.0, accepted=True)
        snap = rates.snapshot(now=55.0)
        assert snap["bids_per_s"] == pytest.approx(0.1)
        assert snap["acceptance_pct"] == 100.0
        assert snap["revenue_per_s"] == 0.0

    def test_roundtrip_percentiles_are_count_bounded_not_windowed(self):
        rates = RateWindow(window=1.0, max_roundtrips=4)
        for micros in (100.0, 200.0, 300.0, 400.0, 500.0):
            rates.note_roundtrip(micros)
        snap = rates.snapshot(now=1e9)  # far past any bid window
        # oldest sample (100) evicted by maxlen, not by time
        assert snap["roundtrip_p50_us"] == 300.0
        assert snap["roundtrip_p95_us"] == 500.0

    def test_unscraped_notes_stay_bounded_by_the_window(self):
        """A service nobody scrapes keeps one window of events, not all."""
        rates = RateWindow(window=1.0)
        for i in range(1000):  # 100 notes a second over 10 windows
            rates.note_bid(i / 100.0, accepted=i % 2 == 0)
            rates.note_settlement(i / 100.0, 1.0)
        assert len(rates._bids) <= 101 and len(rates._revenue) <= 101
        snap = rates.snapshot(now=9.99)
        assert snap["bids_per_s"] == pytest.approx(101.0)
        assert snap["revenue_per_s"] == pytest.approx(101.0)
