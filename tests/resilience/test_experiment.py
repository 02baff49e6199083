"""The chaos-sweep experiment: schema, shape checks, registry wiring."""

import json

import pytest

from repro.experiments.resilience import _RES_KEYS, run_resilience
from repro.experiments.runner import EXPERIMENTS, run_experiment, shape_report


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_resilience(
        n_jobs=150,
        seeds=(0,),
        mttfs=(500.0, 250.0),
        budgets=(2,),
    )


class TestSweepResult:
    def test_row_schema(self, tiny_sweep):
        policies = {"disabled", "budget=2"}
        assert {row["policy"] for row in tiny_sweep.rows} == policies
        assert {row["mttf"] for row in tiny_sweep.rows} == {500.0, 250.0}
        required = {"policy", "mttf", "total_revenue", "accepted", "crashes",
                    "tasks_killed", *_RES_KEYS}
        for row in tiny_sweep.rows:
            assert required <= set(row)

    def test_recovered_value_strictly_positive_with_budget(self, tiny_sweep):
        budgeted = [r for r in tiny_sweep.rows if r["policy"] == "budget=2"]
        assert sum(r["value_recovered"] for r in budgeted) > 0.0
        assert all(r["failovers_attempted"] > 0 for r in budgeted)

    def test_no_double_completions_anywhere(self, tiny_sweep):
        assert all(r["double_completions"] == 0.0 for r in tiny_sweep.rows)

    def test_disabled_rows_report_no_recovery(self, tiny_sweep):
        disabled = [r for r in tiny_sweep.rows if r["policy"] == "disabled"]
        assert all(r["value_recovered"] == 0.0 for r in disabled)
        assert all(r["failovers_attempted"] == 0.0 for r in disabled)

    def test_rows_are_json_serializable(self, tiny_sweep):
        payload = json.dumps({"rows": tiny_sweep.rows})
        assert json.loads(payload)["rows"] == tiny_sweep.rows

    def test_shape_checks_pass_on_tiny_sweep(self, tiny_sweep):
        checks = shape_report(tiny_sweep)
        names = {c.name for c in checks}
        assert "failover-recovers-value" in names
        assert "no-task-completes-twice" in names
        assert "failover-never-earns-less" in names
        robust_failures = [c for c in checks if not c.passed and c.robust]
        assert not robust_failures, [str(c) for c in robust_failures]


class TestRegistryAndCli:
    def test_registered_with_both_scales(self):
        definition = EXPERIMENTS["resilience"]
        assert definition.run is run_resilience
        assert "mttfs" in definition.quick
        assert definition.full["n_jobs"] > definition.quick["n_jobs"]

    def test_run_experiment_dispatches(self):
        result = run_experiment(
            "resilience",
            n_jobs=80,
            seeds=(0,),
            mttfs=(400.0,),
            budgets=(1, 2),
        )
        assert result.figure == "resilience"
        assert len(result.rows) == 3  # disabled + two budgets at one mttf

    def test_registry_holds_the_plot_axes(self):
        assert EXPERIMENTS["resilience"].axes == ("mttf", "value_recovered", "policy", True)


class TestObservedSweep:
    def test_metrics_out_records_every_run_and_leaves_rows_alone(self, tmp_path, capsys):
        """``--metrics-out`` brackets each market run as an observed run
        (the ambient observer reaches ``simulate_resilient_market``), and
        observing changes no result byte."""
        from repro.cli import main

        argv = ["resilience", "--n-jobs", "60", "--seeds", "0"]
        plain, observed, metrics = (
            tmp_path / name for name in ("plain.json", "observed.json", "metrics.json")
        )
        assert main([*argv, "--out", str(plain)]) == 0
        assert main([*argv, "--out", str(observed), "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()

        rows = json.loads(plain.read_text())["rows"]
        snapshot = json.loads(metrics.read_text())
        assert len(snapshot["runs"]) == len(rows) > 0  # one seed: a run per row
        assert all(run["wall_s"] > 0 for run in snapshot["runs"])
        assert "resilience.failovers" in snapshot["metrics"]
        assert not any(
            name.startswith(("resilience.breaker", "resilience.health"))
            for name in snapshot["metrics"]
        )
        assert json.dumps(json.loads(observed.read_text())["rows"]) == json.dumps(rows)
