"""Unit tests for the metrics package."""

import math

import numpy as np
import pytest
from scipy import stats as sp

from repro.metrics import format_table, improvement_percent, mean_and_ci
from repro.metrics.stats import t_quantile_975


class TestImprovementPercent:
    def test_positive_baseline(self):
        assert improvement_percent(110.0, 100.0) == pytest.approx(10.0)
        assert improvement_percent(90.0, 100.0) == pytest.approx(-10.0)

    def test_negative_baseline_sign_is_meaningful(self):
        # earning -50 instead of -100 is a +50% improvement
        assert improvement_percent(-50.0, -100.0) == pytest.approx(50.0)
        assert improvement_percent(-150.0, -100.0) == pytest.approx(-50.0)

    def test_crossing_zero(self):
        assert improvement_percent(100.0, -100.0) == pytest.approx(200.0)

    def test_zero_baseline(self):
        assert improvement_percent(5.0, 0.0) == math.inf
        assert improvement_percent(-5.0, 0.0) == -math.inf
        assert improvement_percent(0.0, 0.0) == 0.0

    def test_identity(self):
        assert improvement_percent(42.0, 42.0) == 0.0


class TestMeanAndCi:
    def test_single_value(self):
        stats = mean_and_ci([7.0])
        assert stats.mean == 7.0
        assert stats.ci_half_width == 0.0
        assert stats.n == 1
        assert str(stats) == "7"

    def test_multiple_values(self):
        stats = mean_and_ci([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(1.0)
        assert stats.ci_low < 2.0 < stats.ci_high
        assert "±" in str(stats)

    def test_ci_shrinks_with_n(self):
        narrow = mean_and_ci([1.0, 2.0] * 50)
        wide = mean_and_ci([1.0, 2.0])
        assert narrow.ci_half_width < wide.ci_half_width

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_ci([])

    @pytest.mark.parametrize("df", range(1, 61))
    def test_quantile_is_scipys(self, df):
        assert t_quantile_975(df) == pytest.approx(sp.t.ppf(0.975, df), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_half_width_is_student_t(self, n):
        values = np.random.default_rng(n).normal(100.0, 7.0, size=n)
        expected = sp.t.ppf(0.975, n - 1) * values.std(ddof=1) / math.sqrt(n)
        assert mean_and_ci(values).ci_half_width == pytest.approx(expected, rel=1e-12)

    def test_three_seed_interval_covers_the_mean_95_percent(self):
        """Seeded coverage at n = 3: the normal quantile 1.96 would cover
        about 81 % of the time; t at 2 degrees of freedom covers 95 %."""
        samples = np.random.default_rng(2004).normal(10.0, 3.0, size=(20_000, 3))
        covered = [s.ci_low <= 10.0 <= s.ci_high for s in map(mean_and_ci, samples)]
        assert np.mean(covered) == pytest.approx(0.95, abs=0.006)


class TestFormatTable:
    def test_renders_header_and_rows(self):
        text = format_table(
            [{"name": "x", "value": 1.5}, {"name": "longer", "value": 22.0}],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "longer" in text and "22.00" in text

    def test_empty_rows(self):
        assert "(no data)" in format_table([], title="t")

    def test_column_selection_and_order(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_large_and_tiny_floats_use_compact_form(self):
        text = format_table([{"x": 123456.0, "y": 0.00001234, "z": float("nan")}])
        assert "1.23e+05" in text
        assert "1.23e-05" in text
        assert "nan" in text

    def test_missing_cell_renders_empty(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "3" in text
