"""Tests for the economic audit ledger (repro.audit) and `repro audit`."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.audit import AUDIT_SCHEMA, audit_recording
from repro.cli import main
from repro.live.recovery import plan_recovery
from repro.obs.flight import FlightRecorder, read_recording

REPO_ROOT = Path(__file__).resolve().parents[1]


def _copy(recording):
    return copy.deepcopy(recording)


def _first(recording, kind):
    return next(e for e in recording.events if e["kind"] == kind)


def _codes(report):
    return {v["code"] for v in report.violations}


#: A wall-clock journal holding one open contract: bid 1, awarded to s0
#: at its issued quote and never settled.
_JOURNAL = [
    {"kind": "header", "schema": 1, "clock": "wall"},
    {
        "seq": 1, "kind": "site", "t": 0.0, "site_id": "s0", "capacity": 1,
        "heuristic": "firstprice", "threshold": None, "discount_rate": None,
        "heuristic_params": None,
    },
    {
        "seq": 2, "kind": "bid", "t": 0.0, "bid_id": 1, "client_id": None,
        "runtime": 4.0, "value": 50.0, "decay": 0.1, "bound": None,
        "released_at": 0.0,
    },
    {
        "seq": 3, "kind": "quote", "t": 0.0, "site_id": "s0", "bid_id": 1,
        "verdict": "issued", "price": 50.0,
    },
    {
        "seq": 4, "kind": "award", "t": 0.0, "bid_id": 1, "site_id": "s0",
        "contract_id": 1, "agreed_price": 50.0, "promised_completion": 4.0,
        "task_tid": 1,
    },
]


def _without(field):
    return lambda record: {k: v for k, v in record.items() if k != field}


#: name -> (line of the journal to damage, what becomes of that record)
_HOSTILE = {
    "no kind": (4, _without("kind")),
    "an array record": (4, lambda record: [1, 2]),
    "an unknown kind": (4, lambda record: {**record, "kind": "awrd"}),
    "a bid without bid_id": (2, _without("bid_id")),
    "a bid without runtime": (2, _without("runtime")),
    "a string agreed_price": (4, lambda record: {**record, "agreed_price": "fifty"}),
}


def _hostile_journal(tmp_path, case):
    lines = [json.dumps(record) for record in _JOURNAL]
    if case == "garbled header":
        lines[0] = '{"kind": "header", "schema": 1, "clo'
    else:
        index, damage = _HOSTILE[case]
        lines[index] = json.dumps(damage(_JOURNAL[index]))
    path = tmp_path / "hostile.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCleanRecording:
    def test_honest_market_run_audits_clean(self, recorded_market):
        flight, result = recorded_market
        report = audit_recording(flight.recording())
        assert report.ok, report.format()
        assert report.violations == []
        assert report.counts["bids"] == len(result.outcomes)
        assert report.counts["awards"] == result.accepted
        assert report.counts["settlements"] == result.accepted
        assert report.counts["sites"] == 2
        assert report.counts["total_revenue"] == pytest.approx(result.total_revenue)

    def test_report_doc_shape(self, recorded_market):
        flight, _ = recorded_market
        doc = audit_recording(flight.recording()).to_doc()
        assert doc["schema"] == AUDIT_SCHEMA
        assert doc["ok"] is True
        assert doc["clock"] == "sim"
        json.dumps(doc)  # machine-readable means JSON-serializable

    def test_clean_format_mentions_the_verdict(self, recorded_market):
        flight, _ = recorded_market
        text = audit_recording(flight.recording()).format()
        assert "ledger is clean" in text


class TestCorruptions:
    """Each deliberate corruption must trip exactly the right law."""

    def test_duplicate_bid(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        recording.events.append(dict(_first(recording, "bid")))
        report = audit_recording(recording)
        assert "duplicate_bid" in _codes(report)

    def test_quote_and_award_for_unknown_bid(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        ghost = -1
        for event in recording.events:
            if event["kind"] in ("quote", "award") and "bid_id" in event:
                event["bid_id"] = ghost
                break
        report = audit_recording(recording)
        assert _codes(report) & {"quote_unknown_bid", "award_unknown_bid"}

    def test_award_without_quote(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        award = _first(recording, "award")
        # drop every quote the winning site issued for that bid
        recording.events = [
            e
            for e in recording.events
            if not (
                e["kind"] == "quote"
                and e["site_id"] == award["site_id"]
                and e["bid_id"] == award["bid_id"]
            )
        ]
        report = audit_recording(recording)
        assert "award_without_quote" in _codes(report)

    def test_award_above_quote(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        _first(recording, "award")["agreed_price"] += 10.0
        report = audit_recording(recording)
        assert "award_above_quote" in _codes(report)

    def test_duplicate_settlement(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        recording.events.append(dict(_first(recording, "settlement")))
        report = audit_recording(recording)
        codes = _codes(report)
        assert "duplicate_settlement" in codes
        # the duplicate's money must NOT double-count into reconciliation
        assert "revenue_mismatch" not in codes

    def test_settlement_without_award(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        _first(recording, "settlement")["contract_id"] = -1
        report = audit_recording(recording)
        codes = _codes(report)
        assert "settlement_without_award" in codes
        assert "unsettled_contract" in codes  # the real contract now dangles

    def test_inflated_settlement_price(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        settlement = next(
            e
            for e in recording.events
            if e["kind"] == "settlement" and e["outcome"] == "completed"
        )
        settlement["price"] = settlement["value"] + 100.0
        report = audit_recording(recording)
        codes = _codes(report)
        assert "settlement_exceeds_value" in codes
        assert "settlement_price_drift" in codes
        assert "revenue_mismatch" in codes

    def test_subtle_price_drift_below_value(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        settlement = next(
            e
            for e in recording.events
            if e["kind"] == "settlement"
            and e["outcome"] == "completed"
            and e["price"] > 1.0
        )
        settlement["price"] -= 0.5  # under value, over the cent tolerance
        report = audit_recording(recording)
        assert "settlement_price_drift" in _codes(report)
        assert "settlement_exceeds_value" not in _codes(report)

    def test_inflated_site_summary_revenue(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        _first(recording, "site_summary")["revenue"] += 1.0
        report = audit_recording(recording)
        assert "revenue_mismatch" in _codes(report)

    def test_contract_count_mismatch(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        _first(recording, "site_summary")["contracts"] += 1
        report = audit_recording(recording)
        assert "contract_count_mismatch" in _codes(report)

    def test_unsettled_contract(self, recorded_market):
        flight, _ = recorded_market
        recording = _copy(flight.recording())
        victim = _first(recording, "settlement")
        recording.events = [e for e in recording.events if e is not victim]
        report = audit_recording(recording)
        codes = _codes(report)
        assert "unsettled_contract" in codes
        assert "revenue_mismatch" in codes  # its money is still in the books


class TestAuditCli:
    def _record_to(self, tmp_path, recorded_market):
        source, _ = recorded_market
        path = str(tmp_path / "flight.jsonl")
        sink = FlightRecorder(path, clock_domain=source.clock_domain)
        for event in source.events:
            sink.record(event["kind"], event["t"], **{
                k: v for k, v in event.items() if k not in ("seq", "kind", "t")
            })
        sink.close()
        return path

    def test_exit_0_and_report_on_clean_recording(self, tmp_path, capsys, recorded_market):
        path = self._record_to(tmp_path, recorded_market)
        assert main(["audit", path]) == 0
        assert "ledger is clean" in capsys.readouterr().out

    def test_exit_1_on_violations_and_json_out(self, tmp_path, capsys, recorded_market):
        path = self._record_to(tmp_path, recorded_market)
        corrupt = tmp_path / "corrupt.jsonl"
        lines = (tmp_path / "flight.jsonl").read_text().splitlines()
        settlements = [l for l in lines if '"settlement"' in l]
        corrupt.write_text("\n".join(lines + settlements[:1]) + "\n")
        out_path = tmp_path / "report.json"
        assert main(["audit", str(corrupt), "--out", str(out_path)]) == 1
        assert "duplicate_settlement" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["ok"] is False
        assert any(v["code"] == "duplicate_settlement" for v in doc["violations"])

    def test_exit_2_on_unreadable_recording(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("this is not a recording\n")
        assert main(["audit", str(garbage)]) == 2
        assert "cannot read recording" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["audit", "replay"])
    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_exit_2_on_a_hostile_record(self, tmp_path, capsys, command, case):
        path = _hostile_journal(tmp_path, case)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert len(lines) == 1 and "cannot read recording" in lines[0], lines

    @pytest.mark.parametrize("case", sorted([*_HOSTILE, "garbled header"]))
    def test_recover_refuses_a_hostile_journal(self, tmp_path, case):
        path = _hostile_journal(tmp_path, case)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--recover", path, "--port", "0"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"repro: cannot recover {path}: ")

    def test_the_hostile_corpus_damages_a_recoverable_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in _JOURNAL))
        recording = read_recording(str(path))
        assert [v["code"] for v in audit_recording(recording).violations] == [
            "unsettled_contract"
        ]
        [(award, bid)] = plan_recovery(recording).open_contracts
        assert (award["contract_id"], bid["bid_id"]) == (1, 1)

    def test_exit_2_on_missing_file(self, tmp_path):
        assert main(["audit", str(tmp_path / "nope.jsonl")]) == 2

    def test_json_format_prints_the_doc(self, tmp_path, capsys, recorded_market):
        path = self._record_to(tmp_path, recorded_market)
        assert main(["audit", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["counts"]["sites"] == 2
