"""Tests for the replication/CI harness."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.replication import run_replicated
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.metrics.stats import SeriesStats, mean_and_ci


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


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_replication_is_the_experiment_run_once_per_seed(name):
    """Oracle without the sweep's per-seed rows: replication *i* is the
    experiment run at the single seed ``base_seed + i``, its rows matched
    by the axes' ``(line, x)`` coordinates, every numeric column folded
    by ``mean_and_ci``."""
    x, _, line, _ = EXPERIMENTS[name].axes
    replicated = run_replicated(name, 3, base_seed=5, n_jobs=60)
    runs = [run_experiment(name, seeds=(s,), n_jobs=60).rows for s in (5, 6, 7)]
    assert len(replicated.rows) == len(runs[0])
    for row in replicated.rows:
        matched = [
            [r for r in rows if (r[line], r[x]) == (row[line], row[x])]
            for rows in runs
        ]
        assert all(len(m) == 1 for m in matched)
        samples = [m[0] for m in matched]
        metrics = [
            k for k, v in samples[0].items()
            if k not in (line, x) and isinstance(v, (int, float))
        ]
        assert list(row) == [line, x, *metrics]
        for metric in metrics:
            expected = mean_and_ci([float(r[metric]) for r in samples])
            got = row[metric]
            assert (got.mean, got.std, got.ci_half_width, got.n) == (
                expected.mean, expected.std, expected.ci_half_width, expected.n
            )
