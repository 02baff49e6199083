"""``BENCHMARK.json`` against the referee's schema and against ``bench.spec``."""

import json
import os

from bench import ROOT, spec


def _doc():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_limits():
    doc = _doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert 1 <= len(doc["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in doc["command"])
    assert not any(a.startswith("/") or ".." in a for a in doc["command"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    # 4 + 22 runs per workload, set-up included, inside the referee's cap
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 12) <= 3420


def test_names_units_and_bounds():
    doc = _doc()
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert spec.NAME_RE.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert 0 < len(metric["unit"]) <= 16
        assert all(c.isalnum() or c in "_/%.-" for c in metric["unit"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]


def test_name_rule():
    assert spec.NAME_RE.match("obs.flight.us_per_record")
    assert spec.NAME_RE.match("w2_tasks_per_s")
    for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "µs"):
        assert not spec.NAME_RE.match(bad), bad


def test_benchmark_json_is_generated_from_spec():
    doc = _doc()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(spec.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.DRIVER_E2E]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER]


def test_readme_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "bench", "README.md")) as handle:
        text = handle.read()
    for name in (*spec.WORKLOADS, *(m.name for m in (*spec.E2E, *spec.DRIVER_E2E, *spec.PER_LAYER))):
        assert f"`{name}`" in text, name
