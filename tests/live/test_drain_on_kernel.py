"""Drain with work outstanding, hosted on the DES kernel.

``LiveService.drain`` waits only through its clock, so on a ``SimClock``
the coroutine is stepped by the kernel's own driver: both branches — the
work finishes inside the grace period; the grace expires and what is
left is abandoned, then killed — run deterministically, in sim time,
with no event loop, subprocess or sleep.  Each scenario runs twice and
must close the same books.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.audit import audit_recording
from repro.live.api import ApiError, BidRequest
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.executor import POLL_INTERVAL
from repro.live.service import LiveService
from repro.obs.flight import FlightRecorder, JournalSink, read_recording
from repro.sim import Coroutine, SimClock, Simulator
from repro.site.service import KernelExecutor

RATE = 60.0  # market units per "wall" second: the grace and the poll scale by it
POLL = POLL_INTERVAL * RATE
# no slack floor: every bid is contracted, so the queues really fill
SPECS = (
    LiveSiteSpec(site_id="live-0", slots=1, threshold=-1e9),
    LiveSiteSpec(site_id="live-1", slots=2, threshold=-1e9),
)


@pytest.fixture(autouse=True)
def no_event_loop(monkeypatch):
    """Any attempt to find or make an asyncio loop fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel-hosted drain touched asyncio")

    for module in (asyncio, asyncio.events):
        for name in ("get_running_loop", "get_event_loop", "new_event_loop"):
            monkeypatch.setattr(module, name, refuse)


class KillableKernelExecutor(KernelExecutor):
    """The kernel executor plus what the service asks of a site's
    executor at shutdown: ``kill_all()`` takes every pending completion
    back and reports the run as failed, at once."""

    def __init__(self, sim, site_id):
        super().__init__(sim, site_id)
        self.runs = {}  # tid -> (completion event, task, on_exit)
        self.peak_running = 0

    def launch(self, task, now, on_exit):
        def exited(task, ok=True):
            del self.runs[task.tid]
            on_exit(task, ok=ok)

        event = super().launch(task, now, exited)
        self.runs[task.tid] = (event, task, exited)
        self.peak_running = max(self.peak_running, len(self.runs))
        return event

    def kill_all(self):
        victims = list(self.runs.values())
        for event, task, exited in victims:
            self.sim.cancel(event)
            exited(task, ok=False)
        return len(victims)


def _bid(runtime, bound):
    return BidRequest(
        runtime=runtime, value=80.0, decay=0.05, bound=bound, client_id="c", argv=None
    )


def _drained(journal, drain_grace, runtimes, drain_at=50.0):
    """Bids at t=0,10,20,…; SIGTERM at *drain_at*; run the kernel dry."""
    sim = Simulator()
    flight = FlightRecorder(sink=JournalSink(journal, fsync="off"), clock_domain="wall")
    service = LiveService(
        LiveConfig(sites=SPECS, rate=RATE, drain_grace=drain_grace),
        clock=SimClock(sim),
        flight=flight,
        executor=lambda spec: KillableKernelExecutor(sim, spec.site_id),
    )
    for i, runtime in enumerate(runtimes):
        bound = 20.0 if i % 2 else None
        sim.schedule_at(10.0 * i, service.handle_bids, [_bid(runtime, bound)], tag="bid")
    seen = {}

    def sigterm():
        seen["outstanding"] = sum(
            s.engine.running_count + s.engine.queue_length for s in service.sites
        )
        seen["queued"] = service.queued_total
        seen["drain"] = Coroutine(sim, service.drain(), name="drain")

    sim.schedule_at(drain_at, sigterm, tag="sigterm")
    sim.run()
    flight.close()
    assert not seen["drain"].alive and service.draining
    assert service.idle and not service.errors
    with pytest.raises(ApiError) as refused:
        service.submit_bid(_bid(1.0, None))
    assert refused.value.status == 503
    recording = flight.recording()  # a journaled recorder: read back
    settlements = recording.of_kind("settlement")
    books = {
        "revenue": [site.revenue for site in service.sites],
        "contracts": [len(site.contracts) for site in service.sites],
        "ledgers": [site.engine.ledger.summary() for site in service.sites],
        "settlements": [
            (e["site_id"], e["outcome"], e["price"], e["t"]) for e in settlements
        ],
        "summaries": [
            (e["site_id"], e["revenue"], e["contracts"], e["t"])
            for e in recording.of_kind("site_summary")
        ],
        "end": sim.now,
    }
    return service, seen, books


def _audit_clean(journal, service):
    recording = read_recording(journal)
    report = audit_recording(recording)
    assert report.ok, report.violations
    assert [e["site_id"] for e in recording.of_kind("site_summary")] == [
        spec.site_id for spec in SPECS
    ]
    for site in service.sites:
        assert all(contract.settled for contract in site.contracts)


def test_work_outstanding_finishes_inside_the_grace(tmp_path):
    runtimes = [120.0, 90.0, 200.0, 60.0, 150.0]
    journal = str(tmp_path / "a.jsonl")
    service, seen, books = _drained(journal, drain_grace=30.0, runtimes=runtimes)
    assert seen["outstanding"] == 5 and seen["queued"] > 0, "the scenario is vacuous"

    _audit_clean(journal, service)
    # nothing was forced: every contract completed, no run failed
    assert {outcome for _, outcome, _, _ in books["settlements"]} == {"completed"}
    assert sum(ledger["crashes"] for ledger in books["ledgers"]) == 0
    # the drain noticed the last exit at its next poll, well inside the grace
    last_exit = max(t for _, _, _, t in books["settlements"])
    assert last_exit <= books["end"] < last_exit + POLL
    assert books["end"] < 50.0 + 30.0 * RATE
    assert {t for _, _, _, t in books["summaries"]} == {books["end"]}

    again = _drained(str(tmp_path / "b.jsonl"), drain_grace=30.0, runtimes=runtimes)[2]
    assert again == books


def test_grace_expiry_abandons_the_queue_then_kills(tmp_path):
    runtimes = [900.0, 700.0, 800.0, 600.0, 500.0, 400.0]
    journal = str(tmp_path / "a.jsonl")
    service, seen, books = _drained(journal, drain_grace=2.0, runtimes=runtimes)
    assert seen["outstanding"] == 6 and seen["queued"] == 3, "the scenario is vacuous"

    _audit_clean(journal, service)
    expiry = 50.0 + 2.0 * RATE
    assert books["end"] == expiry
    # nothing ran to the end and — restart budget notwithstanding — nothing restarted
    assert {t for _, _, _, t in books["settlements"]} == {expiry}
    assert {o for _, o, _, _ in books["settlements"]} == {"breached", "abandoned"}
    assert sum(ledger["restarts"] for ledger in books["ledgers"]) == 0
    launched = sum(s.engine.executor.peak_running for s in service.sites)
    assert launched == 3, "shutdown started queued or requeued work"
    # per site, the queue went first and the running tasks when they were killed
    for site in service.sites:
        settled = [
            e["contract_id"]
            for e in read_recording(journal).of_kind("settlement")
            if e["site_id"] == site.site_id
        ]
        was_running = [
            c.contract_id for c in site.contracts if c.task.first_start is not None
        ]
        assert was_running and settled[-len(was_running):] == was_running
    # bounded bids breach at the floor; unbounded ones owe the accrued penalty only
    assert {p for _, o, p, _ in books["settlements"] if o == "breached"} == {-20.0}

    again = _drained(str(tmp_path / "b.jsonl"), drain_grace=2.0, runtimes=runtimes)[2]
    assert again == books
