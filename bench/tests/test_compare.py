"""``compare``: verdicts, the digest and failed-share gates, smoke refusal."""

import json

import pytest

from bench import compare
from bench import spec


def metric_named(name):
    return next(m for m in spec.E2E if m.name == name)


def _record(workload, seed, e2e, digests=None, failed=0, sizing="full"):
    return {
        "schema": 1, "workload": workload, "seed": seed, "sizing": sizing,
        "comparable": sizing == "full", "traced": False, "attempted": 1000,
        "failed": failed, "correct": failed == 0, "digests": digests or {"u": "d0"},
        "e2e": e2e,
    }


def _write(path, records):
    path.write_text(json.dumps({"schema": 1, "runs": records}))
    return str(path)


def _fig6(tasks, w2=1000.0, setup=0.3, rss=40.0):
    return {"setup_s": setup, "peak_rss_mb": rss, "tasks_per_s": tasks, "w2_tasks_per_s": w2}


def test_verdicts():
    tasks = metric_named("tasks_per_s")  # higher is better, bound 5%
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    assert compare.verdict_for(tasks, steady, steady)[0] == "ok"
    assert compare.verdict_for(tasks, steady, [v * 0.9 for v in steady])[0] == "REGRESSED"
    assert compare.verdict_for(tasks, steady, [v * 1.1 for v in steady])[0] == "improved"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    verdict, spread, bound = compare.verdict_for(tasks, noisy, [v * 0.97 for v in noisy])
    assert verdict == "unresolved" and spread > tasks.bound and bound == spread
    # every run of the change beats every run of the base: resolved despite noise
    assert compare.verdict_for(tasks, noisy, [v + 100 for v in noisy])[0] == "improved"


def test_absolute_bound():
    share = metric_named("bid_in_limit_share_hi")
    assert compare.worse_by(share, 0.99, 0.96) == pytest.approx(0.03)
    assert compare.verdict_for(share, [0.99] * 5, [0.96] * 5)[0] == "REGRESSED"
    assert compare.verdict_for(share, [0.99] * 5, [0.98] * 5)[0] == "ok"


def test_compare_rows_and_gates(tmp_path):
    base = [_record("fig6_admission", s, _fig6(100.0 + s)) for s in range(5)]
    same = _write(tmp_path / "b.json", base)
    rows, failures = compare.compare(_write(tmp_path / "a.json", base), same)
    assert not failures
    assert {r.metric.name for r in rows} == {
        "setup_s", "peak_rss_mb", "tasks_per_s", "w2_tasks_per_s"}
    assert all(r.ratio == 1.0 for r in rows)
    text = compare.format_rows(rows)
    assert "fig6_admission" in text and "tasks_per_s" in text

    changed = [dict(r, digests={"u": "d1"}) for r in base]
    _rows, failures = compare.compare(same, _write(tmp_path / "c.json", changed))
    assert any("digest of u" in f for f in failures)

    failing = [dict(r, failed=10) for r in base]
    _rows, failures = compare.compare(same, _write(tmp_path / "d.json", failing))
    assert any("failed share rose" in f for f in failures)

    slower = [_record("fig6_admission", s, _fig6(80.0 + s)) for s in range(5)]
    assert compare.main(same, _write(tmp_path / "e.json", slower)) == 1
    assert compare.main(same, same, str(tmp_path / "baseline.json")) == 0
    baseline = json.loads((tmp_path / "baseline.json").read_text())
    row = baseline["fig6_admission"]["tasks_per_s"]
    assert row["bound"] == 0.05 and "observed_aa_spread" in row


def test_compare_refuses_smoke_numbers(tmp_path):
    smoke = _write(tmp_path / "s.json", [_record("fig6_admission", 0, _fig6(1.0), sizing="smoke")])
    with pytest.raises(SystemExit, match="not comparable"):
        compare.compare(smoke, smoke)
