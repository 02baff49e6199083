"""Kill-chaos end to end: SIGKILL `repro serve`, recover, audit.

The durability acceptance bar as one pytest: a journaled service is
killed with SIGKILL while task subprocesses are running, and the
``--recover`` restart must (1) leave no zombie subprocesses — the
journaled spawn PIDs are dead and the watchdog is re-armed for new
work, (2) replay a pre-crash idempotency key byte-identically, (3)
resume intake with fresh ids, and (4) produce a stitched journal that
``repro audit`` passes.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
RATE = 10.0  # market units per wall second
LONG_RUNTIME = 600.0  # 60s of wall time: still running whenever we kill
ENV = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}


def _serve(port_file, journal, recover=False):
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--port-file", str(port_file),
        "--rate", str(RATE),
        "--slots", "2",
        "--drain-grace", "20",
    ]
    argv += ["--recover", str(journal)] if recover else [
        "--journal", str(journal), "--fsync", "always",
    ]
    return subprocess.Popen(
        argv, cwd=REPO_ROOT, env=ENV,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _await_port(proc, port_file):
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and not port_file.exists():
        if proc.poll() is not None:
            pytest.fail(f"serve died at startup:\n{proc.stdout.read()}")
        time.sleep(0.05)
    assert port_file.exists(), "serve never wrote its port file"
    return int(port_file.read_text())


def _post_bid(port, payload, key):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/bids", data=json.dumps(payload).encode(),
        method="POST",
    )
    request.add_header("Content-Type", "application/json")
    request.add_header("Idempotency-Key", key)
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read(), dict(response.headers)


def _spawn_pids(journal):
    pids = set()
    for line in journal.read_text().splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if event.get("kind") == "intent" and event.get("action") == "spawn":
            pids.add(int(event["pid"]))
    return pids


def _alive(pid):
    """True while the PID exists as a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return bool(handle.read())
    except OSError:
        return False


def test_sigkill_then_recover_leaves_no_zombies(tmp_path):
    journal = tmp_path / "journal.jsonl"
    bid = {"runtime": LONG_RUNTIME, "value": 500.0, "decay": 0.001}

    proc = _serve(tmp_path / "port1", journal)
    recovered = None
    try:
        port = _await_port(proc, tmp_path / "port1")
        originals = {}
        for i in range(6):
            body, headers = _post_bid(
                port, {**bid, "client_id": f"kill-{i}"}, f"kill-key-{i}"
            )
            assert "Idempotency-Replayed" not in headers
            originals[f"kill-key-{i}"] = body

        deadline = time.monotonic() + 15
        while len(_spawn_pids(journal)) < 2:  # both slots forked for real
            assert time.monotonic() < deadline, "no subprocesses spawned"
            time.sleep(0.1)
        orphans = {pid for pid in _spawn_pids(journal) if _alive(pid)}
        assert orphans

        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=20) == -signal.SIGKILL
        assert any(_alive(pid) for pid in orphans), (
            "SIGKILL took the children too; the scenario is vacuous"
        )

        # ---- recover onto the same journal --------------------------
        recovered = _serve(tmp_path / "port2", journal, recover=True)
        port2 = _await_port(recovered, tmp_path / "port2")

        # satellite: no zombie subprocesses survive recovery
        assert not any(_alive(pid) for pid in orphans), (
            "recovery left the pre-crash subprocesses running"
        )

        # pre-crash key replays the original bytes
        body, headers = _post_bid(
            port2, {**bid, "client_id": "kill-0"}, "kill-key-0"
        )
        assert headers.get("Idempotency-Replayed") == "true"
        assert body == originals["kill-key-0"]

        # intake resumed: a fresh short bid negotiates, executes under a
        # re-armed watchdog, and settles before the drain
        pre_crash_ids = {json.loads(b)["bid_id"] for b in originals.values()}
        body, headers = _post_bid(
            port2,
            {"runtime": 5.0, "value": 500.0, "decay": 0.001,
             "client_id": "fresh"},
            "kill-key-fresh",
        )
        fresh = json.loads(body)
        assert fresh["accepted"]
        assert fresh["bid_id"] > max(pre_crash_ids)

        recovered.send_signal(signal.SIGTERM)
        assert recovered.wait(timeout=40) == 0

        # the fresh task's subprocess is settled and gone too
        post_recovery_pids = _spawn_pids(journal) - orphans
        assert post_recovery_pids, "the fresh bid never spawned a subprocess"
        assert not any(_alive(pid) for pid in post_recovery_pids)

        # ---- the stitched journal passes the auditor ----------------
        audit = subprocess.run(
            [sys.executable, "-m", "repro", "audit", str(journal)],
            cwd=REPO_ROOT, env=ENV, capture_output=True, text=True,
        )
        assert audit.returncode == 0, audit.stdout + audit.stderr
        assert "ledger is clean" in audit.stdout
        # the drain summary counts the stitched books, pre-crash included
        [drained] = [
            line for line in recovered.stdout.read().splitlines()
            if line.startswith("drained:")
        ]
        contracts = re.search(r"(\d+) contract\(s\)", drained).group(1)
        assert f" {contracts} awards," in audit.stdout, (drained, audit.stdout)
    finally:
        for p in (proc, recovered):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
