"""End-to-end: `repro serve` as a real OS process, driven over HTTP.

The acceptance bar from the issue, verbatim: ≥ 20 HTTP bid submissions,
tasks running as real subprocesses under the slot cap, settlement
through the exact value-function accounting, a clean SIGTERM drain, and
observability artifacts on the way out.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.live.api import TASK_STATUS_KEYS

REPO_ROOT = Path(__file__).resolve().parents[2]

RATE = 500.0  # 4-unit runtimes are 8ms of wall clock
SLOTS = 2
N_BIDS = 24


def _http(port: int, method: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method=method
    )
    request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


@pytest.fixture
def serve(tmp_path):
    port_file = tmp_path / "port"
    trace_out = tmp_path / "trace.json"
    metrics_out = tmp_path / "metrics.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--port-file", str(port_file),
            "--rate", str(RATE),
            "--slots", str(SLOTS),
            "--drain-grace", "20",
            # a 4-unit task sleeps 8 ms, but the interpreter it forks can
            # take over 100 ms to start on a loaded host: at the default
            # factor 10 the watchdog then kills both attempts and the
            # contract is cancelled.  The watchdog has its own tests.
            "--timeout-factor", "100",
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
        ],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and not port_file.exists():
        if proc.poll() is not None:
            pytest.fail(f"serve died at startup:\n{proc.stdout.read()}")
        time.sleep(0.05)
    assert port_file.exists(), "serve never wrote its port file"
    port = int(port_file.read_text())
    try:
        yield proc, port, trace_out, metrics_out
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def test_serve_lifecycle(serve):
    proc, port, trace_out, metrics_out = serve

    assert _http(port, "GET", "/healthz") == {"ok": True}

    # -- submit ≥ 20 bids over HTTP: singles and one batch ------------
    results = []
    for i in range(N_BIDS - 4):
        results.append(
            _http(port, "POST", "/bids",
                  {"runtime": 4.0, "value": 50.0, "decay": 0.1,
                   "client_id": f"client-{i}"})
        )
    batch = _http(
        port, "POST", "/bids",
        {"bids": [{"runtime": 4.0, "value": 50.0, "decay": 0.1}] * 4},
    )
    results.extend(batch["results"])
    assert len(results) == N_BIDS
    accepted = [r for r in results if r["accepted"]]
    assert len(accepted) >= 20, f"only {len(accepted)}/{N_BIDS} accepted"
    assert all("task_id" in r and "price" in r for r in accepted)

    # -- wait until every contracted task settled ---------------------
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        status = _http(port, "GET", "/status")
        if status["tasks"].get("completed", 0) == len(accepted):
            break
        time.sleep(0.1)
    else:
        pytest.fail(f"tasks never completed: {status['tasks']}")

    # real subprocesses ran, and never more than the slot cap at once
    site = status["sites"][0]
    assert site["peak_running"] == SLOTS
    assert status["revenue"] > 0
    assert not status["errors"]

    # -- every task document carries the full settlement schema -------
    tasks = _http(port, "GET", "/tasks")["tasks"]
    assert len(tasks) == len(accepted)
    for doc in tasks:
        assert set(doc) == TASK_STATUS_KEYS
        assert doc["state"] == "completed"
        assert doc["returncode"] == 0 and doc["killed"] is False
        assert doc["price"] == pytest.approx(doc["realized_yield"])
        assert doc["completed_at"] > doc["started_at"] >= doc["submitted_at"]

    # -- clean SIGTERM drain ------------------------------------------
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
    output = proc.stdout.read()
    assert "drain" in output

    # -- observability artifacts --------------------------------------
    trace = json.loads(trace_out.read_text())
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    assert len(events) >= len(accepted)  # at least one span per task
    metrics = json.loads(metrics_out.read_text())
    assert metrics  # non-empty registry snapshot
