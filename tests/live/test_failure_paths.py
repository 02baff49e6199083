"""The live failure paths, scripted: no subprocess, no sleep.

What a failed run does to a live contract — requeue within the restart
budget, then breach at the floor or abandon owing nothing — and what a
drain does when its grace expires, driven run by run on a
``ScriptedExecutor`` and a ``FrozenClock``.  ``test_service.py`` keeps
one real-subprocess test of each.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live.api import ApiError, BidRequest
from repro.live.clock import FrozenClock
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.executor import ExecutionReport
from repro.live.service import LiveService
from repro.live.site import MAX_RESTARTS
from repro.obs.flight import FlightRecorder

from tests.live.scripted import scripted_service


def _bid(runtime=4.0, value=50.0, decay=0.1, bound=None):
    return BidRequest(
        runtime=runtime, value=value, decay=decay, bound=bound,
        client_id="test", argv=None,
    )


def _service(slots=1, **overrides):
    overrides.setdefault("sites", (LiveSiteSpec(site_id="live-0", slots=slots),))
    clock = FrozenClock(0.0)
    flight = FlightRecorder(clock_domain="wall")
    service, [executor] = scripted_service(
        LiveConfig(**overrides), clock=clock, flight=flight
    )
    return service, executor, clock, flight


def _settlements(flight):
    return [
        (e["outcome"], e["price"]) for e in flight.recording().of_kind("settlement")
    ]


def test_failed_run_requeues_within_budget_then_breaches_at_the_floor():
    assert MAX_RESTARTS == 1  # the script below spends a budget of one
    service, executor, clock, flight = _service()
    record = service.submit_bid(_bid(bound=20.0))
    task, site = record.task, service.sites[0]
    assert task.state.value == "running"  # started by the award itself

    clock.advance(3.0)
    executor.end(task, ok=False)
    # budget left: back from scratch, and restarted by the same pass
    assert (task.restarts, task.remaining, task.state.value) == (1, 4.0, "running")
    assert executor.launched == [task, task]
    assert sum(not c.settled for c in site.contracts) == 1

    clock.advance(3.0)
    executor.end(task, ok=False)
    assert task.state.value == "cancelled"
    assert task.realized_yield == -20.0  # the value-function floor
    assert record.contract.settled and record.contract.actual_price == -20.0
    assert site.revenue == -20.0 and all(c.settled for c in site.contracts)
    summary = site.engine.ledger.summary()
    assert (summary["crashes"], summary["restarts"], summary["breaches"]) == (2, 1, 1)
    assert _settlements(flight) == [("breached", -20.0)]
    assert service.idle and not service.errors


def test_unbounded_failure_is_abandoned_owing_only_the_accrued_penalty():
    service, executor, clock, flight = _service(slots=2)
    early, late = service.submit_bids([_bid(), _bid()])
    # at once: nothing has decayed away, nothing is owed either way
    for _ in range(MAX_RESTARTS + 1):
        executor.end(early.task, ok=False)
    assert early.task.state.value == "cancelled"
    assert early.task.restarts == MAX_RESTARTS
    assert early.contract.actual_price == 0.0
    # 996 units late at decay 0.1: the value is gone and 49.6 of penalty
    # has accrued, which stands — there is no floor to stop at
    clock.advance(1000.0)
    for _ in range(MAX_RESTARTS + 1):
        executor.end(late.task, ok=False)
    assert late.contract.actual_price == pytest.approx(50.0 - 0.1 * 996.0)
    assert _settlements(flight) == [
        ("abandoned", 0.0), ("abandoned", late.contract.actual_price)
    ]
    assert all(c.settled for c in service.sites[0].contracts)


def test_a_clean_exit_after_a_failed_one_completes_the_contract():
    service, executor, clock, flight = _service()
    record = service.submit_bid(_bid(decay=0.0))
    executor.end(record.task, ok=False)
    clock.advance(4.0)
    executor.end(record.task)
    assert record.task.state.value == "completed" and record.task.restarts == 1
    assert _settlements(flight) == [("completed", 50.0)]


def test_watchdog_kill_is_a_failed_run():
    """The subprocess executor's own seam, its ``run`` stubbed: a report
    marked ``killed`` reaches the engine as a failed exit and the API as
    the task's report."""
    config = LiveConfig(sites=(LiveSiteSpec(site_id="live-0", slots=1),))
    service = LiveService(config)
    runs = []

    async def killed_at_the_deadline(argv, timeout_units, on_spawn=None):
        runs.append(timeout_units)
        return ExecutionReport(returncode=-9, killed=True, started_at=0.0, ended_at=1.0)

    service.sites[0].engine.executor.run = killed_at_the_deadline

    async def scenario():
        record = service.submit_bid(_bid(runtime=2.0))
        while not service.idle:
            await asyncio.sleep(0)
        return record

    record = asyncio.run(scenario())
    # the watchdog's deadline, once per run the restart budget allows
    assert runs == [config.timeout_factor * 2.0] * (MAX_RESTARTS + 1)
    assert record.report.killed and not record.report.ok
    assert record.task.state.value == "cancelled"
    assert record.contract.settled and all(c.settled for c in service.sites[0].contracts)
    assert not service.errors


def test_grace_expiry_abandons_the_queue_before_it_kills():
    """Queued and running work, restart budget left: the killed run must
    breach, not requeue — or shutdown would start work it then has to
    kill again."""
    service, executor, clock, flight = _service(drain_grace=0.0)
    records = service.submit_bids([_bid(bound=20.0) for _ in range(4)])
    site = service.sites[0]
    assert (site.engine.running_count, site.engine.queue_length) == (1, 3)

    asyncio.run(service.drain())

    assert len(executor.launched) == 1, "shutdown started queued or requeued work"
    assert not executor.running and service.idle
    assert all(c.settled for c in site.contracts)
    for record in records:
        assert record.task.state.value == "cancelled" and record.task.restarts == 0
        assert record.contract.settled and record.contract.actual_price == -20.0
    assert site.engine.ledger.summary()["breaches"] == 4
    # the queue went first, the running task when it was killed
    assert [e["contract_id"] for e in flight.recording().of_kind("settlement")] == [
        r.contract.contract_id for r in records[1:] + records[:1]
    ]
    [summary] = flight.recording().of_kind("site_summary")
    assert summary["revenue"] == -80.0 and summary["contracts"] == 4
    with pytest.raises(ApiError) as excinfo:
        service.submit_bid(_bid())
    assert excinfo.value.status == 503
