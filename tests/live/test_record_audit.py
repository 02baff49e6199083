"""Record→audit over the live service: the wall-clock half of the loop.

A live run with a flight recorder (``repro serve --journal``) must
produce a recording that (a) tags the wall clock domain, (b) passes the
economic audit, and (c) replays through the sim-side tooling — the same
pipeline CI's live-smoke job exercises over a real subprocess serve.
"""

from __future__ import annotations

import asyncio
import sys

from repro.audit import audit_recording
from repro.live.api import BidRequest
from repro.live.config import LiveSiteSpec, default_config
from repro.live.service import LiveService
from repro.obs.flight import FlightRecorder, read_recording
from repro.replay import PolicySpec, replay_recording


def _bid(runtime=4.0, value=50.0, decay=0.1, bound=None):
    return BidRequest(
        runtime=runtime,
        value=value,
        decay=decay,
        bound=bound,
        client_id="test",
        argv=None,
    )


def _run_recorded(tmp_path, requests):
    path = str(tmp_path / "live_flight.jsonl")
    config = default_config(
        rate=200.0,
        poll_interval=0.02,
        sites=(LiveSiteSpec(site_id="live-0", slots=2),),
    )
    flight = FlightRecorder(path, clock_domain="wall")
    service = LiveService(config, flight=flight)

    async def scenario():
        await service.start()
        service.submit_bids(requests)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while not service.idle and loop.time() < deadline:
            await asyncio.sleep(0.02)
        await service.drain()
        await service.stop()

    asyncio.run(scenario())
    flight.close()
    return service, path


def test_live_recording_audits_clean_and_replays(tmp_path):
    hopeless = _bid(runtime=1000.0, value=5.0, decay=3.0)  # declined
    service, path = _run_recorded(
        tmp_path, [_bid(), _bid(runtime=2.0, value=30.0), hopeless]
    )
    recording = read_recording(path)
    assert recording.clock == "wall"
    assert len(recording.of_kind("site")) == 1
    assert len(recording.of_kind("bid")) == 3
    assert len(recording.of_kind("award")) == 2
    assert len(recording.of_kind("settlement")) == 2
    assert {e["outcome"] for e in recording.of_kind("settlement")} == {"completed"}
    assert len(recording.of_kind("site_summary")) == 1

    report = audit_recording(recording)
    assert report.ok, report.format()
    assert report.counts["total_revenue"] > 0

    # the wall-clock recording replays through the sim-side A/B tooling
    doc = replay_recording(recording, [PolicySpec("greedy", threshold=0.0)])
    assert doc["source_clock"] == "wall"
    assert doc["table"][0]["bids"] == 3


def test_failed_live_task_settles_breached_on_the_record(tmp_path):
    fail = BidRequest(
        runtime=4.0,
        value=50.0,
        decay=0.1,
        bound=10.0,
        client_id="test",
        argv=(sys.executable, "-c", "raise SystemExit(1)"),
    )
    service, path = _run_recorded(tmp_path, [fail])
    recording = read_recording(path)
    [settlement] = recording.of_kind("settlement")
    assert settlement["outcome"] == "breached"
    report = audit_recording(recording)
    assert report.ok, report.format()


def test_rate_window_tracks_the_recorded_run(tmp_path):
    service, _ = _run_recorded(tmp_path, [_bid(), _bid(runtime=2.0, value=30.0)])
    snap = service.rate_snapshot()
    assert snap["acceptance_pct"] == 100.0
    assert snap["roundtrip_p50_us"] is not None and snap["roundtrip_p50_us"] > 0
