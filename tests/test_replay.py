"""Tests for record→replay A/B analysis (repro.replay) and `repro replay`."""

import json
import math

import pytest

from repro import replay
from repro.audit import audit_recording
from repro.cli import main
from repro.obs.flight import FlightRecorder, JournalSink, Recording, read_recording
from repro.replay import (
    PolicySpec,
    format_table,
    parse_policy,
    replay_recording,
    trace_from_recording,
)


class TestParsePolicy:
    def test_bare_name(self):
        spec = parse_policy("recorded")
        assert spec == PolicySpec(name="recorded")

    def test_full_spec(self):
        spec = parse_policy(
            "risky:heuristic=firstreward,threshold=0,discount_rate=0.05,"
            "strategy=earliest,vickrey=true,alpha=0.4"
        )
        assert spec.name == "risky"
        assert spec.heuristic == "firstreward"
        assert spec.threshold == 0.0
        assert spec.discount_rate == 0.05
        assert spec.strategy == "earliest"
        assert spec.vickrey is True
        assert spec.heuristic_params == {"alpha": 0.4}

    @pytest.mark.parametrize(
        "text",
        [
            "",
            ":threshold=0",
            "p:threshold",
            "p:strategy=fastest",
            "p:vickrey=maybe",
            "p:threshold=abc",
        ],
    )
    def test_bad_specs_raise(self, text):
        with pytest.raises(ValueError):
            parse_policy(text)


class TestTraceReconstruction:
    def test_trace_matches_recorded_bids(self, recorded_market):
        flight, result = recorded_market
        recording = flight.recording()
        trace, bid_events = trace_from_recording(recording)
        assert len(trace) == len(result.outcomes) == len(bid_events)
        bids = recording.of_kind("bid")
        assert sorted(e["value"] for e in bids) == sorted(float(v) for v in trace.value)
        # arrivals must be non-decreasing (a Trace invariant)
        assert all(b >= a for a, b in zip(trace.arrival, trace.arrival[1:]))

    def test_unbounded_penalty_roundtrips_to_inf(self, recorded_market):
        flight, _ = recorded_market
        trace, _ = trace_from_recording(flight.recording())
        assert all(math.isinf(b) for b in trace.bound)

    def test_empty_recording_is_an_error(self):
        empty = Recording(schema=1, clock="sim", events=[])
        with pytest.raises(ValueError, match="no bid events"):
            trace_from_recording(empty)


def contended_market(alpha, discount_rate):
    """Four two-slot sites under twice their capacity, scheduling by
    ``FirstReward(alpha, discount_rate)``: queues form, so the
    heuristic's parameters decide fates.  Returns ``(recorder, result)``."""
    from repro.market import MarketSite, run_market
    from repro.scheduling import FirstReward
    from repro.sim import Simulator
    from repro.site import SlackAdmission
    from repro.workload import economy_spec, generate_trace

    spec = economy_spec(
        n_jobs=400, value_skew=3, decay_skew=5, load_factor=2.0,
        processors=8, penalty_bound=None,
    )
    sim = Simulator()
    sites = [
        MarketSite(
            sim, f"site-{i}", 2, FirstReward(alpha, discount_rate),
            admission=SlackAdmission(60.0, 0.05),
        )
        for i in range(4)
    ]
    flight = FlightRecorder(clock_domain="sim")
    return flight, run_market(generate_trace(spec, seed=0), sites, flight=flight)


class TestReplay:
    @pytest.mark.parametrize("alpha, discount_rate", [(0.3, 0.01), (0.9, 0.05)])
    def test_recorded_policy_reproduces_the_run_exactly(self, alpha, discount_rate):
        # the heuristic's parameters travel in the site records: a
        # non-default FirstReward replays as itself, not as the default
        flight, result = contended_market(alpha, discount_rate)
        doc = replay_recording(flight.recording(), [PolicySpec("recorded")])
        baseline, replayed = doc["table"]
        assert replayed["bids"] == baseline["bids"]
        assert replayed["accepted"] == baseline["accepted"] == result.accepted
        assert replayed["revenue"] == pytest.approx(baseline["revenue"])
        assert replayed["breaches"] == baseline["breaches"]
        divergence = doc["divergence"]["recorded"]
        assert divergence["changed_bids"] == 0
        assert divergence["examples"] == []

    def test_a_recording_without_params_replays_the_defaults(self):
        # recordings that predate the field (or a heuristic whose
        # parameters could not be read) rebuild the heuristic by name
        flight, _ = contended_market(0.9, 0.05)
        recording = flight.recording()
        for event in recording.of_kind("site"):
            del event["heuristic_params"]
        replayed = replay_recording(recording, [PolicySpec("recorded")])["table"][1]
        defaults, _ = contended_market(0.3, 0.01)
        expected = replay_recording(defaults.recording(), [])["table"][0]
        replayed.pop("policy"), expected.pop("policy")
        assert replayed == expected

    def test_alternative_policy_diverges_and_is_tabulated(self, recorded_market):
        flight, _ = recorded_market
        doc = replay_recording(
            flight.recording(),
            [PolicySpec("greedy", threshold=-math.inf)],
            divergence_limit=3,
        )
        baseline, greedy = doc["table"]
        # admit-everything accepts at least as much as the recorded policy
        assert greedy["accepted"] >= baseline["accepted"]
        divergence = doc["divergence"]["greedy"]
        assert divergence["changed_bids"] > 0
        assert len(divergence["examples"]) <= 3
        example = divergence["examples"][0]
        assert {"ordinal", "arrival", "runtime", "value", "recorded", "replayed"} <= set(example)

    def test_replayed_run_audits_clean_too(self, recorded_market):
        flight, _ = recorded_market
        trace, _ = trace_from_recording(flight.recording())
        # replay under a different policy, recording the replay itself
        from repro.market.broker import Broker
        from repro.market.economy import run_market
        from repro.replay import _build_sites, _site_configs
        from repro.sim import Simulator

        sim = Simulator()
        sites = _build_sites(
            sim, _site_configs(flight.recording()), PolicySpec("alt", threshold=0.0)
        )
        shadow = FlightRecorder(clock_domain="sim")
        run_market(trace, sites, broker=Broker(sites=sites), flight=shadow)
        report = audit_recording(shadow.recording())
        assert report.ok, report.format()

    def test_doc_carries_workload_and_policy_descriptions(self, recorded_market):
        flight, _ = recorded_market
        doc = replay_recording(flight.recording(), [PolicySpec("recorded")])
        assert doc["source_clock"] == "sim"
        assert doc["workload"]["n"] == doc["table"][0]["bids"]
        assert doc["policies"][0]["name"] == "recorded"
        json.dumps(doc)

    def test_format_table_lists_policies_and_divergence(self, recorded_market):
        flight, _ = recorded_market
        doc = replay_recording(flight.recording(), [PolicySpec("recorded")])
        text = format_table(doc)
        assert "policy" in text and "yield%" in text
        assert "recorded" in text
        assert "divergence[recorded]: 0/" in text


class TestReplayCli:
    def _write_recording(self, tmp_path, flight):
        path = str(tmp_path / "flight.jsonl")
        sink = FlightRecorder(
            sink=JournalSink(path, fsync="off"), clock_domain=flight.clock_domain
        )
        for event in flight.events:
            sink.record(event["kind"], event["t"], **{
                k: v for k, v in event.items() if k not in ("seq", "kind", "t")
            })
        sink.close()
        return path

    def test_default_replays_recorded_policy(self, tmp_path, capsys, recorded_market):
        flight, _ = recorded_market
        path = self._write_recording(tmp_path, flight)
        assert main(["replay", path]) == 0
        out = capsys.readouterr().out
        assert "divergence[recorded]: 0/" in out

    def test_multi_policy_ab_with_json_artifact(self, tmp_path, capsys, recorded_market):
        flight, _ = recorded_market
        path = self._write_recording(tmp_path, flight)
        out_path = tmp_path / "ab.json"
        code = main([
            "replay", path,
            "--policy", "recorded",
            "--policy", "greedy:threshold=-1e9",
            "--out", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert [row["policy"] for row in doc["table"]] == ["recorded", "recorded", "greedy"]
        assert doc["divergence"]["recorded"]["changed_bids"] == 0

    def test_exit_2_on_bad_policy(self, tmp_path, capsys, recorded_market):
        flight, _ = recorded_market
        path = self._write_recording(tmp_path, flight)
        assert main(["replay", path, "--policy", "p:strategy=fastest"]) == 2
        assert "unknown strategy" in capsys.readouterr().out

    @pytest.mark.parametrize("rate", ["inf", "nan", "1e101"])
    def test_exit_2_on_a_discount_rate_past_the_domain(self, tmp_path, capsys, recorded_market, rate):
        flight, _ = recorded_market
        path = self._write_recording(tmp_path, flight)
        policy = f"p:heuristic=firstreward,discount_rate={rate}"
        assert parse_policy(policy).discount_rate is not None  # parsed; refused at the site
        assert main(["replay", path, "--policy", policy]) == 2
        assert "discount_rate must be in [0, 1e+100]" in capsys.readouterr().out

    def test_exit_2_on_unreadable_recording(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert main(["replay", str(bad)]) == 2
        assert "cannot read recording" in capsys.readouterr().out


class TestShadowRecorder:
    """The counterfactual market's recorder keeps no quote rows, and no
    row of the report moves: replay reads only bids, awards and
    settlements of it."""

    def test_a_quote_takes_its_seq_and_nothing_else(self):
        shadow = replay._ShadowRecorder()
        shadow.quote(0.0, "s0", None, None, None)
        assert shadow.seq == 1 and shadow.events == []

    @staticmethod
    def _live(tmp_path):
        # a drained session of the service on the kernel, every other bid
        # with a bounded penalty, as the live smoke submits them
        from tests.live.test_drain_on_kernel import _drained

        path = str(tmp_path / "live.jsonl")
        _drained(path, drain_grace=30.0, runtimes=[120.0, 90.0, 200.0, 60.0, 150.0])
        return read_recording(path)

    @staticmethod
    def _chaos(tmp_path):
        from tests.resilience.chaos_cell import journaled_chaos_cell

        flight = FlightRecorder()
        journaled_chaos_cell(seed=0, budget=1, flight=flight)
        return flight.recording()

    @pytest.mark.parametrize("journal", ["live", "chaos"])
    def test_the_report_is_the_full_recorders(self, tmp_path, monkeypatch, journal):
        recording = getattr(self, f"_{journal}")(tmp_path)
        policies = [parse_policy("recorded"), parse_policy("risky:threshold=0")]
        doc = replay_recording(recording, policies)
        assert doc["table"][1]["accepted"] > 0
        monkeypatch.setattr(replay, "_ShadowRecorder", FlightRecorder)
        assert replay_recording(recording, policies) == doc
