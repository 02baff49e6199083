"""Tests for the replication/CI harness."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.replication import run_replicated
from repro.experiments.runner import EXPERIMENTS
from repro.metrics.stats import SeriesStats


class TestRunReplicated:
    @pytest.fixture(scope="class")
    def result(self):
        # tiny but real: fig4 with a minimal grid, 3 replications
        return run_replicated(
            "fig4",
            replications=3,
            base_seed=10,
            n_jobs=150,
            processors=8,
            alphas=(0.0, 0.5),
            decay_skews=(5.0,),
        )

    def test_rows_cover_grid_once(self, result):
        assert len(result.rows) == 2
        assert [r["alpha"] for r in result.rows] == [0.0, 0.5]

    def test_metrics_are_series_stats(self, result):
        row = result.rows[0]
        assert isinstance(row["improvement_pct"], SeriesStats)
        assert row["improvement_pct"].n == 3
        assert isinstance(row["firstreward_yield"], SeriesStats)

    def test_stat_lookup(self, result):
        stats = result.stat("improvement_pct", alpha=0.5, decay_skew=5.0)
        assert stats.n == 3
        assert stats.ci_half_width >= 0.0

    def test_table_renders_plus_minus(self, result):
        text = result.table()
        assert "±" in text
        assert "3 replications" in text

    def test_replication_count_validation(self):
        with pytest.raises(ExperimentError):
            run_replicated("fig4", replications=1)

    def test_seed_override_rejected(self):
        with pytest.raises(ExperimentError):
            run_replicated("fig4", replications=2, seeds=(0, 1))

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_replicated("fig42", replications=2)

    def test_group_keys_cover_all_figures(self):
        """The harness groups by ``(line, x)`` of each registered figure's
        axes — for the paper's figures and the two chaos sweeps, the
        coordinates their rows have always been grouped by."""
        group_keys = {
            name: (definition.axes[2], definition.axes[0])
            for name, definition in EXPERIMENTS.items()
        }
        assert {name: group_keys[name] for name in (
            "fig3", "fig4", "fig5", "fig6", "fig7", "faults", "resilience",
        )} == {
            "fig3": ("value_skew", "discount_pct"),
            "fig4": ("decay_skew", "alpha"),
            "fig5": ("decay_skew", "alpha"),
            "fig6": ("policy", "load_factor"),
            "fig7": ("load_factor", "threshold"),
            "faults": ("policy", "mttf"),
            "resilience": ("policy", "mttf"),
        }
        for definition in EXPERIMENTS.values():
            x, y, line, log_x = definition.axes
            assert len({x, y, line}) == 3 and isinstance(log_x, bool)
