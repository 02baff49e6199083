#!/usr/bin/env python
"""CI smoke test for crash durability: kill -9 the service, recover it.

Boots ``repro serve`` with a write-ahead journal, drives a bid batch
through the stdlib retry client (every bid carries an idempotency key),
then SIGKILLs the process while task subprocesses are still running —
no drain, no atexit, nothing graceful.  The second half closes the loop:

1. ``repro serve --recover`` replays the journal, kills the orphaned
   task subprocesses (verified via the journaled spawn PIDs), re-settles
   the orphaned contracts, and resumes intake on a fresh port;
2. replaying a pre-crash idempotency key returns the original response
   body byte-for-byte with ``Idempotency-Replayed: true`` — the retry
   loop a client was running when the service died converges without a
   double award;
3. fresh bids negotiate with new bid ids (the recovered id counters
   never reuse a journaled id), and SIGTERM drains to exit 0;
4. ``repro audit`` over the stitched pre-crash + post-recovery journal
   exits 0 — the conservation laws hold across the crash boundary.

Usage::

    python scripts/crash_smoke.py [--bids 20] [--artifacts DIR]

Exit status 0 on success, 1 on any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.live.client import LiveClient, RetryPolicy  # noqa: E402
from repro.obs.flight import read_recording  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
RATE = 10.0  # market units per wall second
LONG_RUNTIME = 600.0  # 60s of wall time: guaranteed still running at the kill
SHORT_RUNTIME = 5.0  # 0.5s: post-recovery bids drain quickly


def start_serve(port_file: str, journal: str, recover: bool) -> subprocess.Popen:
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--port-file", port_file,
        "--rate", str(RATE),
        "--slots", "2",
        "--drain-grace", "30",
    ]
    if recover:
        argv += ["--recover", journal]
    else:
        argv += ["--journal", journal, "--fsync", "always"]
    return subprocess.Popen(argv, env=ENV)


def await_port(proc: subprocess.Popen, port_file: str, what: str) -> int:
    deadline = time.monotonic() + 20
    while not os.path.exists(port_file):
        if proc.poll() is not None:
            raise AssertionError(f"{what} died at startup (exit {proc.returncode})")
        if time.monotonic() > deadline:
            raise AssertionError(f"{what} never wrote its port file")
        time.sleep(0.05)
    with open(port_file) as handle:
        return int(handle.read())


def spawned_pids(journal: str) -> set[int]:
    # the reader drops a torn final line (the kill's, or a write in
    # flight) and refuses damage anywhere else
    return {
        e["pid"]
        for e in read_recording(journal).of_kind("intent")
        if e.get("action") == "spawn"
    }


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return bool(handle.read())
    except OSError:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bids", type=int, default=20)
    parser.add_argument("--artifacts", default="artifacts")
    args = parser.parse_args(argv)

    os.makedirs(args.artifacts, exist_ok=True)
    journal = os.path.join(args.artifacts, "journal.jsonl")
    audit_out = os.path.join(args.artifacts, "audit_report.json")
    policy = RetryPolicy(attempts=6, base_delay=0.2, deadline=30.0)

    proc = start_serve(os.path.join(args.artifacts, "serve1.port"), journal, recover=False)
    recovered = None
    try:
        port = await_port(proc, os.path.join(args.artifacts, "serve1.port"), "serve")
        print(f"crash_smoke: serve on port {port}, journaling to {journal}")

        client = LiveClient(f"http://127.0.0.1:{port}", policy=policy)
        pre_crash: dict[str, bytes] = {}
        pre_crash_ids: set[int] = set()
        accepted = 0
        for i in range(args.bids):
            key = f"crash-smoke-{i}"
            result = client.submit_bid(
                {
                    "runtime": LONG_RUNTIME,
                    "value": 500.0,
                    "decay": 0.001,
                    "client_id": f"crash-{i}",
                },
                idempotency_key=key,
            )
            assert result.status == 200, f"bid {i} got HTTP {result.status}"
            assert not result.replayed, f"fresh bid {i} marked as a replay"
            pre_crash[key] = result.body
            pre_crash_ids.add(result.doc["bid_id"])
            accepted += 1 if result.doc["accepted"] else 0
        print(f"crash_smoke: {accepted}/{args.bids} bids contracted pre-crash")
        assert accepted >= 2, "need running tasks to orphan"

        # wait for the executor to have real subprocesses in flight
        deadline = time.monotonic() + 20
        while len(spawned_pids(journal)) < 2:
            assert time.monotonic() < deadline, "no task subprocesses spawned"
            time.sleep(0.1)
        orphans = {pid for pid in spawned_pids(journal) if pid_alive(pid)}
        assert orphans, "spawned subprocesses already gone before the kill"

        # --- the crash: no drain, no goodbye -------------------------
        proc.send_signal(signal.SIGKILL)
        code = proc.wait(timeout=30)
        assert code == -signal.SIGKILL, f"expected SIGKILL death, got {code}"
        still_running = {pid for pid in orphans if pid_alive(pid)}
        assert still_running, "kill -9 left no orphans; nothing to recover"
        print(f"crash_smoke: killed serve; {len(still_running)} orphaned subprocess(es)")

        # --- recovery ------------------------------------------------
        recovered = start_serve(
            os.path.join(args.artifacts, "serve2.port"), journal, recover=True
        )
        port2 = await_port(
            recovered, os.path.join(args.artifacts, "serve2.port"), "recovery"
        )
        print(f"crash_smoke: recovered service on port {port2}")

        leftover = {pid for pid in orphans if pid_alive(pid)}
        assert not leftover, f"orphaned subprocesses survived recovery: {leftover}"
        print("crash_smoke: all orphaned subprocesses were killed")

        client2 = LiveClient(f"http://127.0.0.1:{port2}", policy=policy)
        replay_key = next(iter(pre_crash))
        replayed = client2.submit_bid(
            {
                "runtime": LONG_RUNTIME,
                "value": 500.0,
                "decay": 0.001,
                "client_id": "crash-0",
            },
            idempotency_key=replay_key,
        )
        assert replayed.replayed, "pre-crash idempotency key was renegotiated"
        assert replayed.body == pre_crash[replay_key], (
            "replayed response body is not byte-identical to the original"
        )
        print("crash_smoke: idempotent replay returned the original bytes")

        fresh_ids = set()
        for i in range(3):
            result = client2.submit_bid(
                {
                    "runtime": SHORT_RUNTIME,
                    "value": 500.0,
                    "decay": 0.001,
                    "client_id": f"fresh-{i}",
                },
                idempotency_key=f"crash-smoke-fresh-{i}",
            )
            assert result.status == 200 and not result.replayed
            fresh_ids.add(result.doc["bid_id"])
        assert len(fresh_ids) == 3, f"fresh bids shared ids: {fresh_ids}"
        assert min(fresh_ids) > max(pre_crash_ids), (
            f"recovered service reused journaled bid ids: {sorted(fresh_ids)} "
            f"vs pre-crash {sorted(pre_crash_ids)}"
        )
        print(f"crash_smoke: intake resumed, fresh bid ids {sorted(fresh_ids)}")

        recovered.send_signal(signal.SIGTERM)
        code = recovered.wait(timeout=60)
        assert code == 0, f"recovered serve exited {code} after SIGTERM"

        # --- the stitched journal must audit clean -------------------
        audit = subprocess.run(
            [sys.executable, "-m", "repro", "audit", journal, "--out", audit_out],
            env=ENV,
            capture_output=True,
            text=True,
        )
        print(audit.stdout, end="")
        assert audit.returncode == 0, (
            f"repro audit exited {audit.returncode} on the stitched journal:\n"
            f"{audit.stdout}{audit.stderr}"
        )
        with open(audit_out) as handle:
            report = json.load(handle)
        assert report["ok"] and report["clock"] == "wall"
        assert report["counts"]["recoveries"] > 0, "journal shows no recovery records"
        print(
            "crash_smoke: ok — stitched journal audited clean "
            f"({report['counts']['bids']} bids, "
            f"{report['counts']['settlements']} settlements, "
            f"{report['counts']['recoveries']} recovery records)"
        )
        return 0
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        for p in (proc, recovered):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()


if __name__ == "__main__":
    sys.exit(main())
