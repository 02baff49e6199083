"""LiveService end-to-end on an in-process event loop.

Each test drives a real asyncio loop (no pytest-asyncio in the
environment) with real subprocesses; the clock rate is high so market
durations of a few units are milliseconds of wall time.
"""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.live.api import ApiError, BidRequest
from repro.live.config import LiveSiteSpec, default_config
from repro.live.service import STRATEGIES, LiveService

FAIL_ARGV = (sys.executable, "-c", "raise SystemExit(1)")
HANG_ARGV = (sys.executable, "-c", "import time; time.sleep(60)")


def _bid(runtime=4.0, value=50.0, decay=0.1, bound=None, argv=None):
    return BidRequest(
        runtime=runtime,
        value=value,
        decay=decay,
        bound=bound,
        client_id="test",
        argv=argv,
    )


def _config(**overrides):
    overrides.setdefault("rate", 200.0)  # 1 wall ms = 0.2 market units
    overrides.setdefault("poll_interval", 0.02)
    overrides.setdefault("sites", (LiveSiteSpec(site_id="live-0", slots=2),))
    return default_config(**overrides)


def _run(config, requests, settle_timeout=10.0):
    """Start a service, submit bids, wait until idle, drain, stop."""
    service = LiveService(config)

    async def scenario():
        await service.start()
        records = service.submit_bids(requests)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + settle_timeout
        while not service.idle and loop.time() < deadline:
            await asyncio.sleep(0.02)
        await service.drain()
        await service.stop()
        return records

    records = asyncio.run(scenario())
    return service, records


def test_completion_settles_at_the_value_function():
    service, [record] = _run(_config(), [_bid(runtime=4.0, value=50.0, decay=0.1)])
    task, contract = record.task, record.contract
    assert record.accepted and task is not None and contract is not None
    assert task.state.value == "completed"
    assert contract.settled
    # valuefn accounting, exactly: price = yield at the realized delay
    delay = max(0.0, task.completion - task.arrival - record.bid.runtime)
    assert contract.actual_price == pytest.approx(contract.vf.yield_at(delay))
    assert contract.actual_price == pytest.approx(task.realized_yield)
    assert service.sites[0].revenue == pytest.approx(contract.actual_price)
    assert record.report is not None and record.report.ok
    assert not service.errors


def test_hopeless_bid_is_declined_with_a_reason():
    # value evaporates (5/3 units) long before the 1000-unit runtime ends
    service, [record] = _run(_config(), [_bid(runtime=1000.0, value=5.0, decay=3.0)])
    assert not record.accepted
    assert record.quotes == 0
    assert record.reason == "no site quoted"
    assert record.task is None and record.contract is None
    assert service.broker.rejections == 1


def test_failed_run_requeues_then_breaches_at_the_floor():
    config = _config(max_restarts=1)
    service, [record] = _run(
        config, [_bid(runtime=4.0, value=50.0, decay=0.1, bound=20.0, argv=FAIL_ARGV)]
    )
    task, contract = record.task, record.contract
    assert task.restarts == 1  # one requeue-from-scratch, then breach
    assert service.sites[0].engine.executor.started == 2
    assert task.state.value == "cancelled"
    assert task.realized_yield == -20.0  # the value-function floor
    assert contract.settled and contract.actual_price == -20.0
    assert service.sites[0].revenue == pytest.approx(-20.0)
    assert service.sites[0].engine.ledger.summary()["breaches"] == 1
    assert not service.errors  # task failure is settlement, not a bug


def test_unbounded_failure_settles_abandoned_owing_nothing():
    config = _config(max_restarts=0)
    service, [record] = _run(
        config, [_bid(runtime=4.0, value=50.0, decay=0.1, bound=None, argv=FAIL_ARGV)]
    )
    task, contract = record.task, record.contract
    assert task.restarts == 0
    assert task.state.value == "cancelled"
    assert contract.settled
    # abandoned before any value decayed away: nothing owed either way
    assert contract.actual_price == 0.0
    assert service.sites[0].open_contracts == 0


def test_unspawnable_argv_settles_and_frees_its_slot(tmp_path):
    """A bid whose command cannot be spawned is a failed run — it takes
    the restart-budget path and settles; it must not leak the slot or
    leave the contract open (one such bid per slot killed a site)."""
    from repro.audit import audit_recording
    from repro.obs.flight import FlightRecorder, JournalSink, read_recording

    path = str(tmp_path / "journal.jsonl")
    flight = FlightRecorder(sink=JournalSink(path, fsync="off"), clock_domain="wall")
    config = _config(
        sites=(LiveSiteSpec(site_id="live-0", slots=1),), max_restarts=1
    )
    service = LiveService(config, flight=flight)
    not_executable = tmp_path / "data.txt"
    not_executable.write_text("not a program\n")
    requests = [
        _bid(bound=20.0, argv=("/nonexistent/binary",)),  # FileNotFoundError
        _bid(bound=None, argv=(str(not_executable),)),  # PermissionError
        _bid(),  # the one slot must still be there for this one
    ]

    async def scenario():
        await service.start()
        records = service.submit_bids(requests)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while not service.idle and loop.time() < deadline:
            await asyncio.sleep(0.02)
        idle_before_drain = service.idle
        await service.drain()
        await service.stop()
        return records, idle_before_drain

    (missing, denied, good), went_idle = asyncio.run(scenario())
    flight.close()
    assert went_idle, "the service never went idle: a slot leaked"
    assert not service.errors  # a task failure is a settlement, not a service bug
    site = service.sites[0]
    assert site.open_contracts == 0 and site.engine.running_count == 0
    for record in (missing, denied):
        assert record.task.state.value == "cancelled"
        assert record.task.restarts == 1  # one requeue, then the breach
        assert record.contract.settled
        assert record.report.returncode is None and not record.report.killed
    assert missing.contract.actual_price == -20.0
    assert denied.contract.actual_price <= 0.0
    assert good.task.state.value == "completed"
    assert site.engine.executor.started == 5
    report = audit_recording(read_recording(path))
    assert report.ok, report.violations


def test_watchdog_kills_an_overrunning_task():
    # declared runtime 2 units, timeout_factor 3 → killed at 6 units
    # (30ms wall); the process would otherwise sleep 60s
    config = _config(max_restarts=0, timeout_factor=3.0)
    service, [record] = _run(
        config, [_bid(runtime=2.0, value=50.0, decay=0.0, argv=HANG_ARGV)]
    )
    assert record.report is not None and record.report.killed
    assert record.task.state.value == "cancelled"
    assert record.contract.settled
    assert service.sites[0].engine.executor.killed == 1


def test_drain_rejects_bids_and_force_settles_everything():
    config = _config(
        rate=10.0,  # runtime 10000 units = ~17 min wall: outlives any grace
        sites=(LiveSiteSpec(site_id="live-0", slots=1),),
        timeout_factor=0.0,  # watchdog off; the drain must do the killing
        max_restarts=0,
        drain_grace=0.3,
    )
    service = LiveService(config)
    requests = [_bid(runtime=10000.0, value=50.0, decay=0.0, argv=HANG_ARGV)
                for _ in range(4)]

    async def scenario():
        await service.start()
        records = service.submit_bids(requests)
        await asyncio.sleep(0.1)  # let the first child fork
        assert service.sites[0].engine.running_count == 1
        assert service.sites[0].engine.queue_length == 3
        await service.drain()
        with pytest.raises(ApiError) as excinfo:
            service.submit_bid(_bid())
        assert excinfo.value.status == 503
        await service.stop()
        return records

    records = asyncio.run(scenario())
    assert service.idle
    assert service.draining
    site = service.sites[0]
    assert site.open_contracts == 0  # every contract settled
    for record in records:
        assert record.contract.settled
        assert record.task.state.value == "cancelled"
    assert site.engine.ledger.summary()["breaches"] == 4


def test_two_sites_share_load_and_status_reports_both():
    config = _config(
        sites=(
            LiveSiteSpec(site_id="live-0", slots=1),
            LiveSiteSpec(site_id="live-1", slots=1),
        ),
        # earliest-completion spreads load: a queued site quotes a later
        # completion, so the empty site wins the next negotiation
        strategy="earliest",
    )
    service = LiveService(config)

    async def scenario():
        await service.start()
        records = []
        for _ in range(6):
            # pace intake so running tasks occupy slots before the next
            # quote: a busy site quotes a later completion, and the
            # earliest strategy routes the bid to the free site
            records.append(service.submit_bid(_bid(runtime=20.0)))
            await asyncio.sleep(0.03)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while not service.idle and loop.time() < deadline:
            await asyncio.sleep(0.02)
        await service.drain()
        await service.stop()
        return records

    records = asyncio.run(scenario())
    assert all(r.accepted for r in records)
    assert all(r.task.state.value == "completed" for r in records)
    status = service.status()
    assert status["service"] == "repro.live"
    assert status["tasks"] == {"completed": 6}
    assert status["negotiations"] == 6
    assert [s["site_id"] for s in status["sites"]] == ["live-0", "live-1"]
    assert sum(s["peak_running"] for s in status["sites"]) >= 2  # both sites ran
    assert status["revenue"] == pytest.approx(
        sum(r.contract.actual_price for r in records)
    )


def test_strategy_registry_names():
    assert set(STRATEGIES) == {"best-yield", "best-surplus", "earliest"}


def test_start_wires_journal_fsync_offload(tmp_path):
    from repro.obs.flight import FlightRecorder, JournalSink

    sink = JournalSink(str(tmp_path / "j.jsonl"), fsync="interval")
    flight = FlightRecorder(sink=sink, clock_domain="wall")
    service = LiveService(_config(), flight=flight)

    async def scenario():
        assert sink.offload is None  # asyncio-free until the loop exists
        await service.start()
        assert sink.offload is not None
        await service.drain()
        await service.stop()

    asyncio.run(scenario())
    flight.close()
