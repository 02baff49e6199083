"""Tests for the metrics registry and its instruments."""

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    TimeWeightedGauge,
)


class TestInstruments:
    def test_counter(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.snapshot() == {"type": "counter", "value": 3.5}

    def test_histogram_moments(self):
        h = Histogram("wait")
        for v in (1.0, 2.0, 6.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(3.0)
        snap = h.snapshot()
        assert snap["min"] == 1.0 and snap["max"] == 6.0 and snap["sum"] == 9.0

    def test_time_weighted_gauge_integrates_the_step_function(self):
        g = TimeWeightedGauge("queue")
        g.observe(0, 0.0)  # held 0 for [0, 10)
        g.observe(4, 10.0)  # held 4 for [10, 20)
        g.observe(2, 20.0)  # closes the 4-interval; 2 not yet weighted
        assert g.time_weighted_mean == pytest.approx((0 * 10 + 4 * 10) / 20)
        assert g.min == 0 and g.max == 4  # extremes over every value seen

    def test_time_weighted_gauge_single_write_falls_back_to_value(self):
        g = TimeWeightedGauge("queue")
        g.observe(5, 1.0)
        assert g.time_weighted_mean == 5


class TestMetricsRegistry:
    def test_get_or_create_shares_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1
        assert "a" in reg

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.histogram("a").observe(1.0)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"]["type"] == "histogram"
        assert snap["b"]["type"] == "counter"
