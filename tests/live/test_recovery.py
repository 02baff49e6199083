"""Crash recovery: plan from a journal, apply to a fresh service.

The unit half builds journals in-process (a service on a scripted
executor whose runs never end, never drained or closed, stands in for a
crashed one — fsync="always" makes every record durable at write time)
and checks the plan: open
contracts, orphan PIDs, restored responses, id-counter floors.  The
apply half re-settles against a fresh service and asserts the books
balance and the dedup table replays byte-identically.
"""

from __future__ import annotations

import asyncio
import json
import subprocess

import pytest

from repro.errors import LiveServiceError
from repro.live.api import BidRequest
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.recovery import (
    OrphanProcess,
    apply_recovery,
    kill_orphans,
    plan_recovery,
    rebuild_contract,
)
from repro.live.service import LiveService
from repro.obs.flight import FlightRecorder, JournalSink, read_recording
from repro.tasks.bid import ServerBid, TaskBid
from repro.tasks.contract import Contract
from repro.tasks.task import Task

from tests.live.scripted import scripted_service


def _config(**overrides):
    overrides.setdefault("rate", 200.0)
    overrides.setdefault("sites", (LiveSiteSpec(site_id="live-0", slots=2),))
    return LiveConfig(**overrides)


def _bid(i, runtime=4.0):
    return BidRequest(
        runtime=runtime, value=50.0, decay=0.1, bound=None,
        client_id=f"client-{i}", argv=None,
    )


def _crash_a_service(path, n_bids=3):
    """Journal *n_bids* keyed negotiations, then vanish without draining.

    No run ever ends on the scripted executor, so awarded tasks are
    still running or queued and every contract is open when the 'crash'
    happens — the same shape as a SIGKILL before execution finished.
    """
    flight = FlightRecorder(
        sink=JournalSink(path, fsync="always"), clock_domain="wall"
    )
    service, _ = scripted_service(_config(), flight=flight)
    docs = {}
    for i in range(n_bids):
        doc, replayed = service.handle_bids([_bid(i)], idempotency_key=f"key-{i}")
        assert not replayed
        docs[f"key-{i}"] = doc
    # no drain, no close: the journal ends mid-flight, like a real crash
    return service, docs


def test_plan_recovery_finds_open_contracts_and_responses(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    crashed, docs = _crash_a_service(path, n_bids=3)
    accepted = crashed.task_records()
    assert accepted, "nothing contracted; the scenario is vacuous"

    recording = read_recording(path)
    plan = plan_recovery(recording)
    assert len(plan.open_contracts) == len(accepted)
    open_ids = {award["contract_id"] for award, _ in plan.open_contracts}
    assert open_ids == {r.contract.contract_id for r in accepted}
    for award, bid in plan.open_contracts:
        record = next(
            r for r in accepted if r.contract.contract_id == award["contract_id"]
        )
        assert award["agreed_price"] == pytest.approx(record.contract.agreed_price)
        assert bid["runtime"] == record.bid.runtime
        assert bid["client_id"] == record.bid.client_id
    # every keyed response is restorable, verbatim
    assert set(plan.responses) == set(docs)
    assert plan.responses["key-0"] == docs["key-0"]
    # id floors clear everything on the record
    assert plan.next_bid_id > max(e["bid_id"] for e in recording.of_kind("bid"))
    assert plan.next_contract_id > max(open_ids)
    assert plan.resume_at > 0.0
    assert plan.books["live-0"].contracts == len(accepted)


def test_plan_recovery_requires_a_wall_clock_journal(tmp_path):
    path = str(tmp_path / "sim.jsonl")
    with FlightRecorder(sink=JournalSink(path), clock_domain="sim") as flight:
        flight.intent(1.0, "accept", bid_id=1)
    with pytest.raises(LiveServiceError, match="wall"):
        plan_recovery(read_recording(path))


def test_plan_recovery_rejects_award_without_bid(tmp_path):
    path = str(tmp_path / "corrupt.jsonl")
    with FlightRecorder(sink=JournalSink(path), clock_domain="wall") as flight:
        flight.record(
            "award", 1.0, bid_id=7, site_id="live-0", contract_id=1,
            agreed_price=10.0, promised_completion=5.0, task_tid=1,
        )
    with pytest.raises(LiveServiceError, match="journal corrupt"):
        plan_recovery(read_recording(path))


def test_settled_contracts_are_not_replanned(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    crashed, _ = _crash_a_service(path, n_bids=2)
    accepted = crashed.task_records()
    # settle one on the record: recovery must only re-settle the other
    first = accepted[0].contract
    first.settle_abandoned(crashed.clock.now, release=first.signed_at)
    crashed.flight.settlement(crashed.clock.now, first, "abandoned")
    plan = plan_recovery(read_recording(path))
    assert {award["contract_id"] for award, _ in plan.open_contracts} == {
        r.contract.contract_id for r in accepted[1:]
    }


def test_rebuild_contract_round_trips_identity(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    crashed, _ = _crash_a_service(path, n_bids=1)
    [record] = crashed.task_records()
    plan = plan_recovery(read_recording(path))
    [(award, bid)] = plan.open_contracts
    rebuilt = rebuild_contract(award, bid)
    assert rebuilt.contract_id == record.contract.contract_id
    assert rebuilt.bid.bid_id == record.bid.bid_id
    assert rebuilt.task_tid == record.contract.task_tid
    assert rebuilt.agreed_price == pytest.approx(record.contract.agreed_price)
    assert rebuilt.signed_at == pytest.approx(record.contract.signed_at)
    assert not rebuilt.settled


def test_apply_recovery_resettles_and_replays(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    crashed, docs = _crash_a_service(path, n_bids=3)
    accepted = crashed.task_records()
    plan = plan_recovery(read_recording(path))

    sink = JournalSink(path, fsync="always", append=True)
    flight = FlightRecorder(sink=sink, clock_domain="wall")
    flight.seq = plan.next_seq
    service = LiveService(_config(), flight=flight)
    resettled = apply_recovery(service, plan, now=plan.resume_at + 1.0)
    assert resettled == len(accepted)

    # the dedup table replays the journaled bytes, not a re-negotiation
    stored, replayed = service.handle_bids([_bid(0)], idempotency_key="key-0")
    assert replayed
    assert json.dumps(stored) == json.dumps(docs["key-0"])

    # fresh ids never collide with journaled ones
    fresh_bid = TaskBid(runtime=1.0, value=1.0, decay=0.0)
    assert fresh_bid.bid_id >= plan.next_bid_id
    fresh_contract = Contract(
        fresh_bid,
        ServerBid(
            site_id="live-0", bid_id=fresh_bid.bid_id,
            expected_completion=1.0, expected_price=1.0, expected_slack=0.0,
        ),
        signed_at=0.0,
    )
    assert fresh_contract.contract_id >= plan.next_contract_id
    assert Task(arrival=0.0, runtime=1.0, vf=fresh_bid.value_function()).tid >= (
        plan.next_task_tid
    )

    # the stitched journal carries the recovery trail and audits whole
    flight.close()
    recording = read_recording(path)
    actions = [e["action"] for e in recording.of_kind("recovery")]
    assert actions[0] == "begin" and actions[-1] == "resume"
    assert actions.count("resettle") == resettled
    resettle_ids = {
        e["contract_id"] for e in recording.of_kind("recovery")
        if e["action"] == "resettle"
    }
    assert resettle_ids == {award["contract_id"] for award, _ in plan.open_contracts}
    # books carried across the crash: revenue matches the settlements
    settled_prices = [e["price"] for e in recording.of_kind("settlement")]
    assert service.sites[0].revenue == pytest.approx(sum(settled_prices))
    assert service.sites[0].contracts_signed == len(accepted)


def test_kill_orphans_tolerates_dead_pids_and_checks_argv0():
    live = subprocess.Popen(["/bin/sleep", "60"])
    mislabeled = subprocess.Popen(["/bin/sleep", "60"])
    dead = subprocess.Popen(["/bin/sleep", "0"])
    dead.wait()
    try:
        orphans = [
            OrphanProcess(pid=live.pid, argv0="/bin/sleep",
                          site_id="s", task_tid=1, contract_id=1),
            # journal claims a different binary: PID-reuse guard skips it
            OrphanProcess(pid=mislabeled.pid, argv0="/bin/not-sleep",
                          site_id="s", task_tid=2, contract_id=2),
            OrphanProcess(pid=dead.pid, argv0="/bin/sleep",
                          site_id="s", task_tid=3, contract_id=3),
        ]
        killed = kill_orphans(orphans)
        assert [o.pid for o in killed] == [live.pid]
        assert live.wait(timeout=10) == -9
        assert mislabeled.poll() is None, "mismatched argv0 must not be signalled"
    finally:
        for proc in (live, mislabeled):
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def test_recovered_service_accepts_new_work(tmp_path):
    """The full loop in-process: crash, recover, resume intake, drain."""
    path = str(tmp_path / "journal.jsonl")
    crashed, _ = _crash_a_service(path, n_bids=2)
    plan = plan_recovery(read_recording(path))

    sink = JournalSink(path, fsync="always", append=True)
    flight = FlightRecorder(sink=sink, clock_domain="wall")
    flight.seq = plan.next_seq
    from repro.live.clock import WallClock

    config = _config()
    service = LiveService(
        config, clock=WallClock(config.rate, start=plan.resume_at), flight=flight
    )
    apply_recovery(service, plan, now=service.clock.now)

    async def scenario():
        await service.start()
        record = service.submit_bid(_bid(99))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while not service.idle and loop.time() < deadline:
            await asyncio.sleep(0.02)
        await service.drain()
        await service.stop()
        return record

    record = asyncio.run(scenario())
    flight.close()
    assert record.accepted
    assert record.task.state.value == "completed"
    # the stitched journal holds the conservation laws end to end
    from repro.audit import audit_recording
    from repro.replay import parse_policy, replay_recording

    recording = read_recording(path)
    report = audit_recording(recording)
    assert report.ok, report.violations
    # the restart journaled its sites again; the first record configures
    # the replay
    assert len(recording.of_kind("site")) == 2
    doc = replay_recording(recording, [parse_policy("recorded")])
    assert [row["policy"] for row in doc["table"]] == ["recorded", "recorded"]
