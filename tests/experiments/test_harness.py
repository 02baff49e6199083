"""Tests for the experiment harness: result container, registry, checks.

Figure runs here use tiny scales (hundreds of jobs) — they verify the
plumbing and row structure, not the statistical shapes (those are the
benchmark suite's job at quick scale and the full runs' at paper scale).
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, FigureResult, run_experiment, shape_report
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.runner import ShapeCheck


class TestFigureResult:
    def make(self):
        r = FigureResult(figure="figX", title="demo")
        r.rows = [
            {"x": 1, "y": 10.0, "line": "a"},
            {"x": 2, "y": 20.0, "line": "a"},
            {"x": 1, "y": 5.0, "line": "b"},
        ]
        return r

    def test_series_groups_and_sorts(self):
        series = self.make().series("x", "y", "line")
        assert series == {"a": [(1, 10.0), (2, 20.0)], "b": [(1, 5.0)]}

    def test_column(self):
        assert self.make().column("y") == [10.0, 20.0, 5.0]

    def test_lookup_unique(self):
        row = self.make().lookup(x=2, line="a")
        assert row["y"] == 20.0

    def test_lookup_ambiguous_or_missing(self):
        with pytest.raises(ExperimentError):
            self.make().lookup(x=1)
        with pytest.raises(ExperimentError):
            self.make().lookup(x=9)

    def test_table_includes_title_and_notes(self):
        r = self.make()
        r.notes.append("a calibration note")
        text = r.table()
        assert "figX" in text and "calibration note" in text


class TestRegistry:
    def test_all_figures_registered(self):
        # the paper's figures and the chaos sweeps, then the three
        # extension sweeps: `repro all` runs them in this order
        assert list(EXPERIMENTS) == [
            "fig3", "fig4", "fig5", "fig6", "fig7", "faults", "resilience",
            "consolidation", "sensitivity-skews", "sensitivity-load-horizon",
        ]

    def test_extension_sweeps_register_no_shape_checks(self):
        result = FigureResult(figure="consolidation", title="", rows=[{"x": 1}])
        assert shape_report(result) == []

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_bad_scale(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig3", scale="huge")

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_empty_seed_list_refused(self, name):
        """Every experiment refuses to average over no seeds, the same
        way — not an IndexError from an empty fold, not rows of nan."""
        with pytest.raises(ExperimentError, match="at least one seed is required"):
            run_experiment(name, seeds=(), n_jobs=60)

    def test_shape_report_requires_registered_figure(self):
        with pytest.raises(ExperimentError):
            shape_report(FigureResult(figure="nope", title=""))

    def test_shape_check_str(self):
        check = ShapeCheck("x", True, "detail", robust=False)
        assert "PASS" in str(check) and "soft" in str(check)
        assert "FAIL" in str(ShapeCheck("x", False, "d"))


TINY = dict(n_jobs=200, seeds=(0,), processors=8)


class TestFigureRuns:
    def test_fig3_rows_cover_grid(self):
        res = run_fig3(discount_percents=(0.001, 1.0), value_skews=(1.0, 4.0), **TINY)
        assert len(res.rows) == 4
        assert {r["value_skew"] for r in res.rows} == {1.0, 4.0}
        for row in res.rows:
            assert row["improvement_pct"] == pytest.approx(
                100.0
                * (row["pv_yield"] - row["firstprice_yield"])
                / abs(row["firstprice_yield"])
            )

    def test_fig3_zero_rate_matches_firstprice(self):
        res = run_fig3(discount_percents=(0.0,), value_skews=(2.15,), **TINY)
        assert res.rows[0]["improvement_pct"] == pytest.approx(0.0, abs=1e-9)

    def test_fig4_and_fig5_differ_only_in_bounds(self):
        kwargs = dict(alphas=(0.0, 0.5), decay_skews=(5.0,), **TINY)
        bounded = run_fig4(**kwargs)
        unbounded = run_fig5(**kwargs)
        assert bounded.figure == "fig4" and unbounded.figure == "fig5"
        assert len(bounded.rows) == len(unbounded.rows) == 2
        # the unbounded baseline always earns less (penalties unbounded)
        assert (
            unbounded.rows[0]["firstprice_yield"]
            <= bounded.rows[0]["firstprice_yield"]
        )

    def test_fig6_has_noac_line(self):
        res = run_fig6(load_factors=(1.0, 2.0), alphas=(0.0,), **TINY)
        policies = {r["policy"] for r in res.rows}
        assert policies == {"alpha=0", "firstprice-noac"}
        assert len(res.rows) == 4

    def test_fig7_improvement_definition(self):
        res = run_fig7(load_factors=(1.33,), thresholds=(0.0, 400.0), **TINY)
        assert len(res.rows) == 2
        for row in res.rows:
            assert row["noac_yield_rate"] == res.rows[0]["noac_yield_rate"]

    def test_quick_scale_kwargs_are_valid(self):
        # every registry entry's quick kwargs must be accepted by its run
        # function (signature drift guard); run the cheapest one end to end
        for name, definition in EXPERIMENTS.items():
            assert set(definition.quick) <= set(
                definition.run.__code__.co_varnames
            ), name
