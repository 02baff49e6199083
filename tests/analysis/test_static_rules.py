"""The static analyzer (`repro lint`) against its fixture corpus.

Every fixture under ``fixtures/`` declares its expected diagnostics
inline with ``# expect: CODE`` comments; the corpus test asserts the
analyzer reports *exactly* that multiset — no missing findings, no
extras — so every rule is exercised positively and negatively at once.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.static.diagnostics import RULES, Diagnostic
from repro.analysis.static.engine import (
    LintUsageError,
    analyze_paths,
    discover_files,
    resolve_selection,
)
from repro.analysis.static.modulemap import (
    is_hot_path,
    is_journaled_act_scope,
    is_live_service,
    is_print_allowed,
    is_sim_path,
    is_timestamp_passive,
    is_wall_clock_allowed,
    module_name_for_path,
    module_pragma,
)
from repro.analysis.static.noqa import collect_suppressions
from repro.analysis.static.report import render_json, render_text

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
REPO_ROOT = HERE.parents[1]

_EXPECT = re.compile(r"#\s*expect:\s*([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)")


def expected_corpus_diagnostics() -> list[tuple[str, int, str]]:
    expected = []
    for path in sorted(FIXTURES.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = _EXPECT.search(line)
            if match:
                for code in re.findall(r"[A-Z]+\d+", match.group(1)):
                    expected.append((str(path), lineno, code))
    return expected


# ----------------------------------------------------------------------
# The corpus: exact diagnostic set, per rule
# ----------------------------------------------------------------------

def test_corpus_exact_diagnostics():
    expected = Counter(expected_corpus_diagnostics())
    run = analyze_paths([str(FIXTURES)])
    actual = Counter((d.path, d.line, d.code) for d in run.diagnostics)
    missing = expected - actual
    unexpected = actual - expected
    assert not missing, f"analyzer missed declared findings: {sorted(missing)}"
    assert not unexpected, f"analyzer produced undeclared findings: {sorted(unexpected)}"


@pytest.mark.parametrize("code", sorted(RULES))
def test_every_rule_has_positive_and_negative_coverage(code):
    """Each rule fires somewhere in the corpus, and some corpus file that
    the rule applies to stays clean — so both polarities are exercised."""
    expected_codes = {c for (_, _, c) in expected_corpus_diagnostics()}
    assert code in expected_codes, f"no fixture exercises {code}"


def test_corpus_fixtures_all_carry_module_pragma():
    for path in sorted(FIXTURES.glob("*.py")):
        assert module_pragma(path.read_text()), f"{path.name} missing module pragma"


def test_select_restricts_to_requested_rules():
    run = analyze_paths([str(FIXTURES)], select=["DET001"])
    codes = {d.code for d in run.diagnostics}
    assert codes == {"DET001"}
    expected_det001 = [e for e in expected_corpus_diagnostics() if e[2] == "DET001"]
    assert len(run.diagnostics) == len(expected_det001)


def test_select_unknown_rule_is_usage_error():
    with pytest.raises(LintUsageError, match="unknown rule"):
        resolve_selection(["DET001,NOPE999"])


def test_selection_preserves_catalog_order_and_dedups():
    assert resolve_selection(["OBS001,DET001", "DET001"]) == ("DET001", "OBS001")


def test_discover_missing_path_is_usage_error():
    with pytest.raises(LintUsageError, match="no such file"):
        discover_files([str(FIXTURES / "does_not_exist.py")])


# ----------------------------------------------------------------------
# noqa suppression
# ----------------------------------------------------------------------

def test_noqa_comment_parsing():
    source = (
        "x = 1  # repro: noqa DET001\n"
        "y = 2  # repro: noqa: DET001, OBS001\n"
        "z = 3  # repro: noqa\n"
        "w = 4  # mentions noqa but is not a directive\n"
    )
    suppressions = collect_suppressions(source)
    assert suppressions[1].codes == frozenset({"DET001"})
    assert suppressions[2].codes == frozenset({"DET001", "OBS001"})
    assert suppressions[3].codes == frozenset()  # blanket
    assert 4 not in suppressions


def test_noqa_in_docstring_is_not_a_directive():
    source = '"""docs say # repro: noqa DET001"""\nx = 1\n'
    assert collect_suppressions(source) == {}


def test_strict_noqa_reports_stale_suppressions(tmp_path):
    target = tmp_path / "stale.py"
    target.write_text(
        "# repro-lint: module=repro.scheduling.stale\n"
        "x = 1  # repro: noqa DET001\n"
    )
    clean = analyze_paths([str(target)])
    assert clean.clean
    strict = analyze_paths([str(target)], strict_noqa=True)
    assert [d.code for d in strict.diagnostics] == ["NQA000"]
    assert strict.diagnostics[0].line == 2


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------

def test_json_output_schema():
    run = analyze_paths([str(FIXTURES)])
    payload = json.loads(render_json(run))
    assert payload["schema_version"] == 1
    assert payload["files_checked"] == len(list(FIXTURES.glob("*.py")))
    assert set(payload["rules"]) == set(RULES)
    assert sum(payload["summary"].values()) == len(payload["findings"])
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "name", "message", "module"}
        assert finding["code"] in RULES
        assert finding["name"] == RULES[finding["code"]].name
        assert finding["line"] >= 1
        assert finding["module"].startswith("repro.")
    # deterministic report order: (path, line, col, code)
    keys = [(f["path"], f["line"], f["col"], f["code"]) for f in payload["findings"]]
    assert keys == sorted(keys)


def test_text_output_format_and_summary():
    run = analyze_paths([str(FIXTURES)])
    text = render_text(run)
    first = run.diagnostics[0]
    assert f"{first.path}:{first.line}:{first.col}: {first.code}" in text
    assert f"{len(run.diagnostics)} finding(s)" in text


def test_parse_error_becomes_e999_diagnostic(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    run = analyze_paths([str(bad)])
    assert [d.code for d in run.diagnostics] == ["E999"]
    assert json.loads(render_json(run))["findings"][0]["name"] == "parse-error"


# ----------------------------------------------------------------------
# Module policy map
# ----------------------------------------------------------------------

def test_module_name_for_path_variants():
    assert module_name_for_path("src/repro/sim/rng.py") == "repro.sim.rng"
    assert module_name_for_path("/abs/src/repro/market/broker.py") == "repro.market.broker"
    assert module_name_for_path("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for_path("examples/quickstart.py") == "examples.quickstart"
    assert module_name_for_path("scripts/unreached.py") == "scripts.unreached"
    # a checkout that is itself called `repro`: anchor on the last root
    assert module_name_for_path("/home/u/repro/src/repro/site/driver.py") == "repro.site.driver"
    assert module_name_for_path("/home/u/repro/scripts/unreached.py") == "scripts.unreached"


def test_policy_predicates():
    assert is_sim_path("repro.sim.kernel")
    assert is_sim_path("repro.scheduling.firstreward")
    assert not is_sim_path("repro.obs.instrument")  # allowlisted
    assert not is_sim_path("repro.cli")
    assert is_hot_path("repro.market.broker")
    assert not is_hot_path("repro.workload.generator")
    assert is_print_allowed("repro.cli")
    assert is_print_allowed("scripts.unreached")
    assert not is_print_allowed("repro.site.engine")


def test_live_mode_scoping():
    """repro.live owns the wall clock; the shared layers it calls stay sim-path."""
    assert not is_sim_path("repro.live.clock")
    assert not is_sim_path("repro.live.executor")
    assert not is_hot_path("repro.live.service")
    # the boundary: code shared with the simulator remains forbidden
    assert is_sim_path("repro.sim.clock")
    assert is_sim_path("repro.market.sites")
    assert is_sim_path("repro.site.admission")
    # only the serve CLI prints; the library modules stay quiet
    assert is_print_allowed("repro.live.serve")
    assert not is_print_allowed("repro.live.service")
    assert not is_print_allowed("repro.live.httpd")
    # the retry client's sleeps/timeouts/deadlines read real time by
    # design — covered by the repro.live allowlist entry
    assert not is_sim_path("repro.live.client")
    assert is_wall_clock_allowed("repro.live.client")
    # crash recovery opts back out: timestamp-passive (OBS002) even
    # though it sits under the allowlisted repro.live package
    assert is_timestamp_passive("repro.live.recovery")
    assert not is_timestamp_passive("repro.live.client")
    assert not is_timestamp_passive("repro.live.service")
    # WAL001 follows the settlement: a LiveSite is a MarketSite, so live
    # contracts settle in repro.market.sites, outside the event-loop scope
    assert is_journaled_act_scope("repro.live.service")
    assert is_journaled_act_scope("repro.market.sites")
    assert not is_live_service("repro.market.sites")
    assert not is_journaled_act_scope("repro.market.broker")


def test_wal001_sees_the_settlements_of_the_shared_site(monkeypatch):
    """The three settlement calls of ``MarketSite._on_task_finished`` are
    findings — suppressed, each with its self-journaling justification;
    they must not go unseen because settlement sits outside repro.live."""
    monkeypatch.chdir(REPO_ROOT)
    path = "src/repro/market/sites.py"
    marked = [
        s for s in collect_suppressions(Path(path).read_text()).values()
        if "WAL001" in s.codes
    ]
    assert len(marked) == 3
    # strict: a marker that suppressed nothing would itself be reported
    run = analyze_paths(["src"], select=["WAL001"], strict_noqa=True)
    assert not [d for d in run.diagnostics if d.path == path]


# ----------------------------------------------------------------------
# CLI contract: exit codes 0 / 1 / 2, end to end
# ----------------------------------------------------------------------

def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


def test_cli_exit_1_on_fixture_corpus():
    proc = _run_cli(str(FIXTURES))
    assert proc.returncode == 1
    assert "finding(s)" in proc.stdout


def test_cli_exit_0_self_check_on_shipped_tree():
    """The shipped source tree holds its own invariants."""
    proc = _run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_cli_exit_2_on_unknown_rule():
    proc = _run_cli("src", "--select", "BOGUS1")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_cli_exit_2_on_missing_path():
    proc = _run_cli("definitely/not/a/path")
    assert proc.returncode == 2


def test_cli_json_format():
    proc = _run_cli(str(FIXTURES), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["findings"]


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for code in RULES:
        assert code in proc.stdout


# ----------------------------------------------------------------------
# In-process self-check (fast path used by developers)
# ----------------------------------------------------------------------

def test_analyze_shipped_tree_is_clean_in_process():
    run = analyze_paths([str(REPO_ROOT / "src")], strict_noqa=True)
    offenders = [d.format() for d in run.diagnostics]
    assert run.clean, "repro lint src/ must stay clean:\n" + "\n".join(offenders)
    assert run.files_checked > 100


def test_diagnostic_format_is_stable():
    diag = Diagnostic(
        path="src/x.py", line=3, col=7, code="DET001", message="msg", module="repro.x"
    )
    assert diag.format() == "src/x.py:3:7: DET001 msg"
