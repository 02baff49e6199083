#!/usr/bin/env python
"""CI smoke test for the live service mode (``repro serve``).

Boots the service as a real OS process on an ephemeral port, drives it
over HTTP the way a client would, and asserts the whole lifecycle:

1. every submitted bid gets a negotiation outcome, on a pool that mixes
   bounded and unbounded penalties, and a batch with one bad bid is
   refused whole (400) before any of it is negotiated;
2. every contracted task runs as a subprocess, never exceeding the
   per-site slot cap, and settles through the value-function accounting;
3. completion documents carry the full ``TASK_STATUS_KEYS`` schema;
4. one hostile bid whose ``argv`` cannot be spawned settles as a failed
   run and gives its slot back (it is not a service error);
5. SIGTERM drains in-flight work and exits 0, and the Chrome-trace and
   metrics artifacts are written and non-trivial;
6. the journal (``--journal … --fsync off``, the best-effort recording)
   closes the loop offline: ``repro audit`` exits 0 on it — wall-clock
   header, every bid and settlement on the record, every conservation
   law held — exits 1 on a deliberately corrupted copy and on a copy
   whose first ``accept`` intent follows its ``bid`` record (the
   write-ahead order, ``bid_before_intent``), and exits 2 (no
   traceback) on a copy with one record's ``kind`` removed; and every
   line of it is canonical — the line the encoder writes for the record
   read back from it (the hot kinds spell their own lines, so this holds
   their guards to wall-clock traffic);
7. ``repro replay`` re-runs the recorded workload under the recorded
   policy plus a risk-seeking alternative and writes the A/B table
   artifact.

Usage::

    python scripts/live_smoke.py [--bids 24] [--artifacts DIR]

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
import urllib.error
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
sys.path.insert(0, ENV["PYTHONPATH"])

from repro.live.api import TASK_STATUS_KEYS  # noqa: E402
from repro.obs.flight import _encode_row, read_recording  # noqa: E402

RATE = 500.0
SLOTS = 2


def http(port: int, method: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method=method
    )
    request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def repro(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=ENV,
        capture_output=True,
        text=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bids", type=int, default=24)
    parser.add_argument("--artifacts", default="artifacts")
    args = parser.parse_args(argv)

    os.makedirs(args.artifacts, exist_ok=True)
    port_file = os.path.join(args.artifacts, "serve.port")
    trace_out = os.path.join(args.artifacts, "live_trace.json")
    metrics_out = os.path.join(args.artifacts, "live_metrics.json")
    journal = os.path.join(args.artifacts, "live_flight.jsonl")
    audit_out = os.path.join(args.artifacts, "audit_report.json")
    replay_out = os.path.join(args.artifacts, "replay_ab.json")

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--port-file", port_file,
            "--rate", str(RATE),
            "--slots", str(SLOTS),
            "--drain-grace", "30",
            # a 4-unit task sleeps 8 ms, but the interpreter it forks can
            # take over 80 ms to start on a loaded host: at the default
            # factor 10 the watchdog then kills every attempt and each
            # contract is cancelled.  The watchdog has its own tests.
            "--timeout-factor", "100",
            "--trace-out", trace_out,
            "--metrics-out", metrics_out,
            "--journal", journal,
            "--fsync", "off",
        ],
        env=ENV,
    )
    try:
        deadline = time.monotonic() + 20
        while not os.path.exists(port_file):
            if proc.poll() is not None:
                print("FAIL: serve died at startup", file=sys.stderr)
                return 1
            if time.monotonic() > deadline:
                print("FAIL: serve never wrote its port file", file=sys.stderr)
                return 1
            time.sleep(0.05)
        with open(port_file) as handle:
            port = int(handle.read())
        print(f"live_smoke: serve listening on port {port}")

        assert http(port, "GET", "/healthz") == {"ok": True}

        bid = {"runtime": 4.0, "value": 50.0, "decay": 0.1}
        # every other bid bounds its penalty, so the pool mixes regimes
        bounded = {**bid, "bound": 0.0}
        results = [http(port, "POST", "/bids",
                        {**(bounded if i % 2 else bid), "client_id": f"smoke-{i}"})
                   for i in range(args.bids - 4)]
        results += http(port, "POST", "/bids", {"bids": [bid, bounded] * 2})["results"]
        accepted = [r for r in results if r["accepted"]]
        print(f"live_smoke: {len(accepted)}/{len(results)} bids contracted")
        assert len(accepted) >= args.bids * 3 // 4, "too many bids declined"
        # a batch whose second bid floors above its value: refused whole
        negotiations = http(port, "GET", "/status")["negotiations"]
        bad = {"runtime": 1.0, "value": -80.0, "decay": 1.0, "bound": 0.0}
        try:
            http(port, "POST", "/bids", {"bids": [bid, bad]})
        except urllib.error.HTTPError as exc:
            assert exc.code == 400, f"the bad batch answered {exc.code}"
        else:
            raise AssertionError("the bad batch was accepted")
        assert http(port, "GET", "/status")["negotiations"] == negotiations, (
            "the bad batch negotiated a bid"
        )
        print("live_smoke: a batch with one bad bid refused whole (400)")
        doomed = http(port, "POST", "/bids",
                      {**bid, "client_id": "smoke-doomed", "argv": ["/nonexistent/binary"]})
        assert doomed["accepted"], "the unspawnable bid was declined"

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = http(port, "GET", "/status")
            if status["tasks"] == {"completed": len(accepted), "cancelled": 1}:
                break
            time.sleep(0.2)
        else:
            docs = http(port, "GET", "/tasks")["tasks"]
            raise AssertionError(
                f"tasks never settled: {status['tasks']}; watchdog kills "
                f"{sum(doc['killed'] for doc in docs)} over {len(docs)} tasks"
            )
        site = status["sites"][0]
        assert site["peak_running"] == SLOTS, f"cap violated: {site['peak_running']}"
        assert status["revenue"] > 0, "no revenue settled"
        assert not status["errors"], status["errors"]

        assert all(s["running"] == 0 and s["queued"] == 0 for s in status["sites"])
        tasks = http(port, "GET", "/tasks")["tasks"]
        assert len(tasks) == len(accepted) + 1
        for doc in tasks:
            assert set(doc) == TASK_STATUS_KEYS, f"schema drift: {sorted(doc)}"
            if doc["task_id"] == doomed["task_id"]:
                # never spawned: no return code, one requeue, then settled
                assert doc["state"] == "cancelled" and doc["returncode"] is None
                assert doc["restarts"] == 1 and doc["price"] is not None
            else:
                assert doc["state"] == "completed" and doc["returncode"] == 0
        print(f"live_smoke: {len(tasks)} tasks settled, "
              f"revenue {status['revenue']:.2f}, peak_running {site['peak_running']}")

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        assert code == 0, f"serve exited {code} after SIGTERM"

        with open(trace_out) as handle:
            trace = json.load(handle)
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        assert len(events) >= len(accepted), "trace has fewer spans than tasks"
        with open(metrics_out) as handle:
            assert json.load(handle), "metrics snapshot is empty"
        print(f"live_smoke: clean drain, {len(events)} trace events")

        # --- audit: the live ledger must be clean --------------------
        audit = repro("audit", journal, "--out", audit_out)
        print(audit.stdout, end="")
        assert audit.returncode == 0, f"repro audit exited {audit.returncode}"
        with open(audit_out) as handle:
            report = json.load(handle)
        assert report["ok"] and report["clock"] == "wall"
        assert report["counts"]["bids"] == len(results) + 1
        assert report["counts"]["settlements"] == len(accepted) + 1

        # --- every journal line is the encoder's line ----------------
        recording = read_recording(journal)
        with open(journal) as handle:
            written = handle.read().splitlines()
        assert len(written) == len(recording.events) + 1, "journal lines != records"
        for line, event in zip(written[1:], recording.events):
            assert line == _encode_row(event), f"journal line is not canonical: {line}"
        print(f"live_smoke: {len(recording.events)} journal lines canonical")

        # --- audit must also CATCH a cooked ledger -------------------
        corrupted = os.path.join(args.artifacts, "flight_corrupted.jsonl")
        with open(journal) as handle:
            lines = handle.read().splitlines()
        duplicate = next(l for l in lines if '"settlement"' in l)
        with open(corrupted, "w") as handle:
            handle.write("\n".join(lines + [duplicate]) + "\n")
        cooked = repro("audit", corrupted)
        assert cooked.returncode == 1, (
            f"audit missed the cooked ledger (exit {cooked.returncode})"
        )
        assert "duplicate_settlement" in cooked.stdout
        print("live_smoke: corrupted ledger correctly rejected")

        # --- ... and a bid negotiated before its write-ahead intent ----
        records = [json.loads(line) for line in lines]
        at_intent = next(
            i for i, r in enumerate(records)
            if r["kind"] == "intent" and r.get("action") == "accept"
        )
        intent = records[at_intent]
        at_bid = next(
            i for i, r in enumerate(records)
            if r["kind"] == "bid" and r["bid_id"] == intent["bid_id"]
        )
        bid = records[at_bid]
        bid["seq"], intent["seq"] = intent["seq"], bid["seq"]
        swapped = list(lines)
        swapped[at_intent], swapped[at_bid] = _encode_row(bid), _encode_row(intent)
        reordered = os.path.join(args.artifacts, "flight_reordered.jsonl")
        with open(reordered, "w") as handle:
            handle.write("\n".join(swapped) + "\n")
        late = repro("audit", reordered)
        assert late.returncode == 1, (
            f"audit missed a bid recorded before its intent (exit {late.returncode})"
        )
        assert "bid_before_intent" in late.stdout
        print("live_smoke: bid recorded before its accept intent correctly rejected")

        # --- ... and refuse a malformed record, without a traceback ----
        malformed = os.path.join(args.artifacts, "flight_malformed.jsonl")
        kindless = json.loads(duplicate)
        del kindless["kind"]
        at = lines.index(duplicate)
        with open(malformed, "w") as handle:
            handle.write(
                "\n".join(lines[:at] + [json.dumps(kindless)] + lines[at + 1:]) + "\n"
            )
        refused = repro("audit", malformed)
        assert refused.returncode == 2, (
            f"audit of a record with no kind exited {refused.returncode}"
        )
        assert "Traceback" not in refused.stderr, refused.stderr
        print("live_smoke: malformed record refused with exit 2")

        # --- replay: A/B the recorded policy vs a risk-seeker --------
        replay = repro(
            "replay", journal,
            "--policy", "recorded",
            "--policy", "risky:threshold=0",
            "--out", replay_out,
        )
        print(replay.stdout, end="")
        assert replay.returncode == 0, f"repro replay exited {replay.returncode}"
        with open(replay_out) as handle:
            doc = json.load(handle)
        rows = {row["policy"] for row in doc["table"]}
        assert rows == {"recorded", "risky"}, rows
        assert doc["divergence"]["recorded"]["changed_bids"] == 0, (
            "same-policy replay diverged from the recording"
        )
        print("live_smoke: ok — recording audited clean and replayed under 2 policies")
        return 0
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
