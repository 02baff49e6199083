"""Tests for the exporters: Chrome trace_event JSON and the snapshot."""

import json

from repro.obs import (
    Observability,
    SpanTracker,
    spans_to_chrome,
    write_chrome_trace,
)


def _sample_tracker():
    t = SpanTracker()
    root = t.open("task:1", "task", 0.0, task_id=1, track="task:1")
    q = t.open("queued", "task", 0.0, parent=root)
    t.close(q, 5.0)
    r = t.open("running", "task", 5.0, parent=root)
    t.instant("preempted", "task", 8.0, parent=root)
    t.close(r, 8.0)
    t.close(root, 12.0, outcome="completed")
    return t


class TestChromeTrace:
    def test_events_well_formed(self):
        t = _sample_tracker()
        doc = spans_to_chrome(t.finished)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        complete = [e for e in events if e.get("ph") == "X"]
        instants = [e for e in events if e.get("ph") == "i"]
        meta = [e for e in events if e.get("ph") == "M"]
        assert len(complete) == 3  # root, queued, running
        assert len(instants) == 1  # preempted
        assert meta, "thread/process name metadata missing"
        for e in complete:
            assert e["dur"] >= 0 and isinstance(e["tid"], int)
        for e in instants:
            assert e["s"] == "t" and "dur" not in e

    def test_parent_links_preserved_in_args(self):
        t = _sample_tracker()
        doc = spans_to_chrome(t.finished)
        by_name = {e["name"]: e for e in doc["traceEvents"] if e.get("ph") in "Xi"}
        root_id = by_name["task:1"]["args"]["span_id"]
        assert by_name["queued"]["args"]["parent_id"] == root_id
        assert by_name["preempted"]["args"]["parent_id"] == root_id

    def test_runs_become_processes(self):
        t = _sample_tracker()
        for s in t.finished:
            s.run = s.span_id % 2
        doc = spans_to_chrome(t.finished)
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0, 1}
        names = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "process_name"
        }
        assert names == {0: "run 0", 1: "run 1"}

    def test_dropped_counter_surfaced(self):
        t = _sample_tracker()
        doc = spans_to_chrome(t.finished, dropped=7)
        assert doc["otherData"]["spans_dropped"] == 7

    def test_file_roundtrip(self, tmp_path):
        t = _sample_tracker()
        path = tmp_path / "sub" / "trace.json"
        write_chrome_trace(t.finished, str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) > 0


class TestSnapshotExport:
    def test_snapshot_is_json_serializable(self):
        from repro.scheduling import FirstPrice
        from repro.site.driver import simulate_site
        from repro.workload import generate_trace, millennium_spec

        obs = Observability()
        spec = millennium_spec(n_jobs=40)
        trace = generate_trace(spec, seed=0)
        simulate_site(
            trace, FirstPrice(), processors=spec.processors,
            keep_records=False, obs=obs,
        )
        snap = obs.snapshot()
        text = json.dumps(snap, sort_keys=True)
        assert "tasks.completed" in text
        assert snap["spans"]["open"] == 0
        assert set(snap) == {"metrics", "runs", "spans"}
