"""Tests for the market flight recorder (repro.obs.flight)."""

import json
import math

import pytest

from repro.obs.flight import (
    FLIGHT_SCHEMA,
    RECORD_KINDS,
    SETTLEMENT_OUTCOMES,
    FlightRecorder,
    JournalSink,
    Recording,
    _jsonable,
    read_recording,
)


class TestRecorderCore:
    def test_memory_only_by_default(self):
        rec = FlightRecorder()
        assert rec.path is None
        rec.record("bid", 1.0, bid_id=3)
        assert rec.events == [{"seq": 1, "kind": "bid", "t": 1.0, "bid_id": 3}]
        rec.close()  # no file sink: close is a no-op

    def test_rejects_unknown_clock_domain(self):
        with pytest.raises(ValueError):
            FlightRecorder(clock_domain="lamport")

    def test_sequence_numbers_are_monotonic(self):
        rec = FlightRecorder()
        for t in (0.0, 1.5, 1.5, 9.0):
            rec.record("bid", t)
        assert [e["seq"] for e in rec.events] == [1, 2, 3, 4]

    def test_recording_snapshot_is_a_copy(self):
        rec = FlightRecorder()
        rec.record("bid", 0.0)
        snap = rec.recording()
        rec.record("bid", 1.0)
        assert len(snap) == 1
        assert len(rec.recording()) == 2
        assert snap.schema == FLIGHT_SCHEMA
        assert snap.clock == "sim"

    def test_of_kind_filters_in_seq_order(self):
        rec = Recording(
            schema=1,
            clock="sim",
            events=[
                {"seq": 1, "kind": "bid"},
                {"seq": 2, "kind": "quote"},
                {"seq": 3, "kind": "bid"},
            ],
        )
        assert [e["seq"] for e in rec.of_kind("bid")] == [1, 3]
        assert rec.of_kind("breaker") == []


class TestFileRoundtrip:
    def test_header_then_events_roundtrip(self, tmp_path):
        path = str(tmp_path / "flight.jsonl")
        with FlightRecorder(sink=JournalSink(path, fsync="off"), clock_domain="wall") as rec:
            rec.record("bid", 2.0, bid_id=11, runtime=1.0, value=40.0, decay=0.0)
            rec.record("quote", 2.0, site_id="s0", bid_id=11, verdict="declined")
        lines = (tmp_path / "flight.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == {
            "kind": "header",
            "schema": FLIGHT_SCHEMA,
            "clock": "wall",
        }
        parsed = read_recording(path)
        assert parsed.clock == "wall"
        assert len(parsed) == 2
        assert parsed.events[0]["bid_id"] == 11

    def test_a_journaled_recorder_keeps_no_second_copy(self, tmp_path):
        """The journal is the record: a recorder with a sink buffers
        nothing (a server would hold its whole journal in RAM), and
        ``recording()`` reads the file back, mid-run included."""
        path = str(tmp_path / "flight.jsonl")
        memory = FlightRecorder(clock_domain="wall")
        with FlightRecorder(sink=JournalSink(path, fsync="off"), clock_domain="wall") as journaled:
            for rec in (journaled, memory):
                row = rec.record("bid", 2.0, bid_id=11, runtime=1.0, value=40.0, decay=0.0)
                assert row == {
                    "seq": 1, "kind": "bid", "t": 2.0,
                    "bid_id": 11, "runtime": 1.0, "value": 40.0, "decay": 0.0,
                }
                rec.record("breaker", 3.0, site_id="s0", old="closed", new="open")
            assert journaled.events == [] and len(memory.events) == 2
            assert journaled.recording() == memory.recording()
        assert journaled.recording() == read_recording(path)

    def test_infinities_survive_the_json_roundtrip(self, tmp_path):
        path = str(tmp_path / "inf.jsonl")
        with FlightRecorder(sink=JournalSink(path, fsync="off")) as rec:
            rec.record(
                "bid", 0.0, bid_id=1, runtime=1.0, value=1.0, decay=0.0,
                bound=math.inf, slack=-math.inf,
            )
        parsed = read_recording(path)
        assert parsed.events[0]["bound"] == math.inf
        assert parsed.events[0]["slack"] == -math.inf
        # the file itself stays strict JSON (no bare Infinity tokens)
        for line in (tmp_path / "inf.jsonl").read_text().splitlines():
            json.loads(line)

    def test_names_that_look_like_sentinels_stay_strings(self, tmp_path):
        """The writer only spells *floats* as ``"inf"``/``"-inf"``/``"nan"``;
        a client or site that calls itself that is not a float."""
        from repro.tasks import TaskBid

        path = str(tmp_path / "names.jsonl")
        bids = {
            name: TaskBid(runtime=5.0, value=10.0, decay=1.0, client_id=name)
            for name in ("nan", "inf", "-inf")
        }
        # a journaled recorder keeps no copy: a memory-only twin fed the
        # same calls holds the rows as they were before encoding
        memory = FlightRecorder()
        with FlightRecorder(sink=JournalSink(path, fsync="off")) as journaled:
            for rec in (journaled, memory):
                for name, bid in bids.items():
                    rec.bid(0.0, bid)
                    rec.site_open(0.0, name, 4, "firstprice", threshold=-math.inf)
                    rec.shed(1.0, 3, 2, 0.5, client_id=name)
                    rec.intent(1.0, "response", idempotency_key=name, response={"ok": True})
                    for slack in (math.inf, -math.inf, math.nan):
                        rec.record(
                            "quote", 2.0, site_id=name, bid_id=bid.bid_id,
                            verdict="declined", slack=slack,
                        )
            assert journaled.events == []
        written = memory.events
        parsed = read_recording(path)
        assert len(parsed) == len(written)
        for got, want in zip(parsed.events, written):
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert type(got[key]) is type(value), (key, got[key])
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(got[key])
                else:
                    assert got[key] == value
        assert {e["client_id"] for e in parsed.of_kind("bid")} == {"nan", "inf", "-inf"}
        assert all(e["threshold"] == -math.inf for e in parsed.of_kind("site"))

    def test_writer_bytes_equal_the_mapping_writer(self, tmp_path):
        """The strict encoder, and its fallback, write what the old writer
        wrote: every row rebuilt through ``_jsonable``, then ``json.dumps``."""
        rows = [
            ("bid", 0.0, {"bid_id": 7, "client_id": None, "value": 40.0, "bound": 3.5}),
            ("bid", 0.5, {"bid_id": 8, "bound": math.inf, "released_at": None}),
            ("quote", 1.0, {"site_id": "s\u00e9-0", "slack": -math.inf, "price": 1e-7}),
            ("quote", 1.0, {"slack": math.nan, "verdict": "declined", "ok": True}),
            ("intent", 2.0, {"action": "response", "doc": {"price": 2.5, "ids": [1, 2]}}),
            # a non-finite float below the top level was never mapped
            ("intent", 2.5, {"action": "response", "doc": {"slack": math.inf}}),
            ("settlement", 3.0, {"on_time": False, "price": -0.0, "completion": 1e22}),
        ]
        path = tmp_path / "new.jsonl"
        with FlightRecorder(sink=JournalSink(str(path), fsync="off")) as rec:
            events = [rec.record(kind, t, **fields) for kind, t, fields in rows]
        header = {"kind": "header", "schema": FLIGHT_SCHEMA, "clock": "sim"}
        old = "".join(
            json.dumps({k: _jsonable(v) for k, v in row.items()}) + "\n"
            for row in [header, *events]
        )
        assert path.read_bytes() == old.encode("utf-8")

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with FlightRecorder(sink=JournalSink(path, fsync="off")) as rec:
            rec.record("bid", 0.0, bid_id=1, runtime=1.0, value=1.0, decay=0.0)
            rec.record("bid", 1.0, bid_id=2, runtime=1.0, value=1.0, decay=0.0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "kind": "bi')  # crashed writer
        parsed = read_recording(path)
        assert [e["bid_id"] for e in parsed.events] == [1, 2]

    def test_torn_interior_line_is_an_error(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with FlightRecorder(sink=JournalSink(path, fsync="off")) as rec:
            rec.record("shed", 0.0)
        text = (tmp_path / "bad.jsonl").read_text()
        (tmp_path / "bad.jsonl").write_text(text + "not json\n" + '{"seq": 2, "kind": "shed", "t": 1.0}\n')
        with pytest.raises(ValueError, match="unreadable record"):
            read_recording(path)

    @pytest.mark.parametrize(
        "first_line, match",
        [
            ("", "empty recording"),
            ("not json", "unreadable header"),
            ('{"kind": "bid"}', "not a flight-recorder header"),
            ('{"kind": "header", "schema": 999, "clock": "sim"}', "schema"),
            ('{"kind": "header", "schema": 1, "clock": "gps"}', "clock domain"),
        ],
    )
    def test_header_validation(self, tmp_path, first_line, match):
        path = tmp_path / "hdr.jsonl"
        path.write_text(first_line + "\n" if first_line else "")
        with pytest.raises(ValueError, match=match):
            read_recording(str(path))


class TestMarketIntegration:
    def test_recorded_run_covers_the_decision_chain(self, recorded_market):
        flight, result = recorded_market
        recording = flight.recording()
        assert len(recording.of_kind("site")) == 2
        assert len(recording.of_kind("bid")) == len(result.outcomes)
        # every bid gets one quote record per site (issued or declined)
        assert len(recording.of_kind("quote")) == 2 * len(result.outcomes)
        assert len(recording.of_kind("award")) == result.accepted
        # the run drains fully: every award settles, every site closes its books
        assert len(recording.of_kind("settlement")) == result.accepted
        assert len(recording.of_kind("site_summary")) == 2
        assert {e["kind"] for e in recording.events} <= set(RECORD_KINDS)

    def test_settlement_outcomes_are_from_the_schema(self, recorded_market):
        flight, _ = recorded_market
        outcomes = {e["outcome"] for e in flight.recording().of_kind("settlement")}
        assert outcomes
        assert outcomes <= set(SETTLEMENT_OUTCOMES)

    def test_site_summary_reconciles_revenue(self, recorded_market):
        flight, result = recorded_market
        summaries = {e["site_id"]: e for e in flight.recording().of_kind("site_summary")}
        for site_id, revenue in result.summary()["revenue_by_site"].items():
            assert summaries[site_id]["revenue"] == pytest.approx(revenue)

    def test_a_client_called_nan_audits_clean_and_replays(self, tmp_path):
        """``POST /bids`` takes any string as ``client_id``; the journal of
        such a session must read back as the session that was recorded."""
        from repro.audit import audit_recording
        from repro.market import Broker, MarketSite
        from repro.market.economy import MarketEconomy
        from repro.replay import parse_policy, replay_recording
        from repro.scheduling import FirstReward
        from repro.sim import Simulator
        from repro.site import SlackAdmission
        from repro.workload import economy_spec, generate_trace

        path = str(tmp_path / "hostile.jsonl")
        trace = generate_trace(economy_spec(n_jobs=60, load_factor=1.5, processors=8), seed=3)
        sim = Simulator()
        with FlightRecorder(sink=JournalSink(path, fsync="off")) as flight:
            sites = [
                MarketSite(sim, site_id, 4, FirstReward(0.3, 0.01),
                           admission=SlackAdmission(60.0))
                for site_id in ("nan", "inf")
            ]
            broker = Broker(sites=sites)
            broker.open_books(flight)
            economy = MarketEconomy(sim, broker)
            economy.schedule_trace(trace, client_id="nan")
            result = economy.run()
        recording = read_recording(path)
        assert recording.events == flight.recording().events
        assert {e["client_id"] for e in recording.of_kind("bid")} == {"nan"}
        assert {e["site_id"] for e in recording.of_kind("quote")} == {"nan", "inf"}
        assert audit_recording(recording).to_doc()["violations"] == []
        doc = replay_recording(recording, [parse_policy("recorded")])
        assert doc["divergence"]["recorded"]["changed_bids"] == 0
        assert result.accepted > 0

    def test_a_schema_1_journal_with_quote_ttl_rows_still_reads(
        self, tmp_path, recorded_market, capsys
    ):
        """Quote TTLs are gone from the writer, not from the schema: a
        schema-1 journal written while sites could stamp ``expires_at``
        and refuse an award with a ``quote_expired`` row stays readable
        by every consumer."""
        from repro.audit import audit_recording
        from repro.cli import main
        from repro.live.recovery import plan_recovery
        from repro.replay import parse_policy, replay_recording

        flight, _ = recorded_market
        lines = [json.dumps({"kind": "header", "schema": 1, "clock": "wall"})]
        refused = False
        for event in flight.recording().events:
            row = {k: ("inf" if v == math.inf else v) for k, v in event.items()}
            if row["kind"] == "quote" and row["verdict"] == "issued":
                row["expires_at"] = row["t"] + 5.0
                if not refused:
                    refused = True
                    lines.append(json.dumps(row))
                    row = {
                        "seq": 0, "kind": "quote_expired", "t": row["t"] + 6.0,
                        "site_id": row["site_id"], "bid_id": row["bid_id"],
                        "expires_at": row["expires_at"],
                    }
            lines.append(json.dumps(row))
        path = tmp_path / "ttl.jsonl"
        path.write_text("\n".join(lines) + "\n")

        recording = read_recording(str(path))
        assert len(recording.of_kind("quote_expired")) == 1
        assert all(
            q["expires_at"] == q["t"] + 5.0
            for q in recording.of_kind("quote") if q["verdict"] == "issued"
        )
        assert audit_recording(recording).to_doc()["violations"] == []
        doc = replay_recording(recording, [parse_policy("recorded")])
        assert doc["divergence"]["recorded"]["changed_bids"] == 0
        assert plan_recovery(recording).open_contracts == []
        assert main(["audit", str(path)]) == 0
        assert main(["replay", str(path)]) == 0
        capsys.readouterr()

    def test_a_journal_with_a_breaker_row_still_reads(
        self, tmp_path, recorded_market, capsys
    ):
        """Circuit breakers are gone from the market, not from the
        schema: a journal written while a breaker could change state
        keeps reading, auditing clean and replaying."""
        from repro.audit import audit_recording
        from repro.cli import main
        from repro.live.recovery import plan_recovery
        from repro.replay import parse_policy, replay_recording

        flight, _ = recorded_market
        path = tmp_path / "breaker.jsonl"
        tripped = False
        with FlightRecorder(sink=JournalSink(str(path), fsync="off"), clock_domain="wall") as rec:
            for event in flight.recording().events:
                fields = {k: v for k, v in event.items() if k not in ("seq", "kind", "t")}
                rec.record(event["kind"], event["t"], **fields)
                if event["kind"] == "settlement" and not tripped:
                    tripped = True
                    rec.record(
                        "breaker", event["t"], site_id=event["site_id"],
                        old="closed", new="open",
                    )

        recording = read_recording(str(path))
        assert len(recording.of_kind("breaker")) == 1
        assert audit_recording(recording).to_doc()["violations"] == []
        doc = replay_recording(recording, [parse_policy("recorded")])
        assert doc["divergence"]["recorded"]["changed_bids"] == 0
        assert plan_recovery(recording).open_contracts == []
        assert main(["audit", str(path)]) == 0
        assert main(["replay", str(path)]) == 0
        capsys.readouterr()

    def test_timestamps_never_decrease(self, recorded_market):
        flight, _ = recorded_market
        times = [e["t"] for e in flight.recording().events]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_recorder_is_an_observer_not_a_participant(self, recorded_market):
        """A recorded market settles the exact same economy as a plain
        one built from the same trace, seed, and policies."""
        from tests.conftest import run_recorded_market

        _, recorded = recorded_market
        none_flight, plain = run_recorded_market(record=False)  # same knobs, no recorder
        assert none_flight is None
        assert plain.accepted == recorded.accepted
        assert plain.total_revenue == recorded.total_revenue
        assert plain.summary()["revenue_by_site"] == recorded.summary()["revenue_by_site"]
        assert plain.summary()["contracts_by_site"] == recorded.summary()["contracts_by_site"]
