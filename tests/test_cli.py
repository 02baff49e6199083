"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.experiments.runner import EXPERIMENTS, run_experiment


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()] == list(EXPERIMENTS)


class TestTrace:
    def test_prints_economy_trace(self, capsys):
        assert main(["trace", "--n-jobs", "5"]) == 0
        out = capsys.readouterr().out
        assert "economy" in out
        assert "arrival" in out and "decay" in out
        # five data rows after the two header lines
        assert len([l for l in out.splitlines() if l.strip()]) >= 7

    def test_millennium_mix(self, capsys):
        assert main(["trace", "--n-jobs", "4", "--mix", "millennium"]) == 0
        assert "millennium" in capsys.readouterr().out


class TestRunExperiment:
    def test_fig4_tiny_run(self, capsys):
        code = main(["fig4", "--n-jobs", "150", "--seeds", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "improvement_pct" in out
        assert "quick scale" in out

    def test_check_flag_prints_report(self, capsys):
        # shape checks may fail at this tiny scale; the command must still
        # print the report and return 0/1 accordingly
        code = main(["fig4", "--n-jobs", "150", "--seeds", "0", "--check"])
        out = capsys.readouterr().out
        assert "shape checks:" in out
        assert code in (0, 1)

    def test_unknown_command_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["figure-nine"])

    def test_lint_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint"])
        assert exc.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    def test_reps_mode(self, capsys):
        code = main(["fig4", "--reps", "2", "--n-jobs", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "±" in out and "2 replications" in out

    def test_reps_conflicts_with_check(self, capsys):
        assert main(["fig4", "--reps", "2", "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro: --reps cannot be combined with --check\n"

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_out_writes_the_registry_rows(self, tmp_path, capsys, name):
        """Every registered experiment is a subcommand whose ``--out`` holds
        the rows ``run_experiment`` returns."""
        out = tmp_path / f"{name}.json"
        assert main([name, "--n-jobs", "60", "--seeds", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        want = run_experiment(name, n_jobs=60, seeds=(0,))
        written = json.loads(out.read_text())
        assert written["figure"] == name
        assert written["rows"] == json.loads(json.dumps(want.rows))


class TestExtensionCommands:
    def test_consolidation(self, capsys):
        assert main(["consolidation", "--n-jobs", "150"]) == 0
        out = capsys.readouterr().out
        assert "consolidated" in out and "market" in out

    def test_consolidation_reps(self, capsys):
        assert main(["consolidation", "--reps", "2", "--n-jobs", "120"]) == 0
        out = capsys.readouterr().out
        assert "±" in out and "2 replications" in out and "organization" in out

    def test_sensitivity_skews(self, capsys):
        assert main(["sensitivity-skews", "--n-jobs", "150"]) == 0
        out = capsys.readouterr().out
        assert "decay_skew" in out

    def test_sensitivity_load_horizon(self, capsys):
        assert main(["sensitivity-load-horizon", "--n-jobs", "150"]) == 0
        assert "decay_horizon" in capsys.readouterr().out


class TestBadFlagValues:
    """A value the library refuses is a usage error: one ``repro: …``
    line on stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trace", "--n-jobs", "0"], "n_jobs must be >= 1"),
            (["fig6", "--n-jobs", "0"], "n_jobs must be >= 1"),
            (["serve", "--rate", "0"], "rate must be finite and > 0"),
            (["serve", "--slots", "0"], "slots must be >= 1"),
            (["serve", "--sites", "0"], "at least one site spec is required"),
            (["all", "--out", "x.json"], "all cannot write every experiment"),
            (["fig4", "--reps", "2", "--out", "x.json"], "--reps cannot be combined with --out"),
            (["fig4", "--reps", "2", "--plot"], "--reps cannot be combined with --plot"),
        ],
        ids=["trace-n-jobs-0", "fig6-n-jobs-0", "serve-rate-0", "serve-slots-0",
             "serve-sites-0", "all-out", "reps-out", "reps-plot"],
    )
    def test_one_line_on_stderr_and_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: ") and message in line
        assert "Traceback" not in captured.out + captured.err


class TestDocumentedServeFlags:
    """Every ``--flag`` docs/live.md and README's "Run it as a service"
    section name exists: on ``repro serve``, or on the other command the
    sentence is about."""

    #: flags those pages name that belong to another command
    ELSEWHERE = {
        "--policy": "repro replay",
        "--traced": "python -m bench run",
        "--workload": "python -m bench run",
    }

    def test_every_documented_flag_is_accepted(self):
        import pathlib
        import re

        from repro.cli import _build_parser

        root = pathlib.Path(__file__).parent.parent
        readme = (root / "README.md").read_text()
        section = readme[readme.index("## Run it as a service"):]
        section = section[: section.index("\n## ", 1)]
        text = (root / "docs" / "live.md").read_text() + section
        documented = set(re.findall(r"(?<![-\w])--[a-z][a-z-]*", text))

        subparsers = next(
            action for action in _build_parser()._actions if action.dest == "command"
        )
        accepted = set(subparsers.choices["serve"]._option_string_actions)
        assert "--journal" in documented & accepted  # the scan finds flags at all
        assert documented - accepted - set(self.ELSEWHERE) == set()
        assert "--policy" in subparsers.choices["replay"]._option_string_actions
