"""Parity by construction: the live service hosted on the DES kernel.

A ``LiveService`` on a ``SimClock`` with the kernel executor, fed a
generated trace through ``handle_bids`` at each arrival, is the
simulator's market run — same contracts, same revenue to the last bit,
same settlements in the same order — because both are ``MarketSite``
over ``TaskServiceSite`` and differ in nothing but who hosts them.  No
subprocess, no sleep, no event loop: the drain that writes the closing
books is stepped by the kernel too (``test_drain_on_kernel.py`` drains
with work outstanding).  The served side runs the way ``repro serve
--journal`` does with no ``--trace-out``: the journal is the only copy of
the flight record and the observer builds no span.
"""

from __future__ import annotations

import math

from repro.audit import audit_recording
from repro.live.api import BidRequest
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.service import LiveService
from repro.market import MarketSite, run_market
from repro.obs import Observability
from repro.obs.flight import FlightRecorder, read_recording
from repro.scheduling.registry import make_heuristic
from repro.sim import Coroutine, SimClock, Simulator
from repro.site.admission import SlackAdmission
from repro.site.service import KernelExecutor
from repro.workload import economy_spec, generate_trace

SPECS = tuple(LiveSiteSpec(site_id=f"live-{i}", slots=2) for i in range(3))


def _trace():
    return generate_trace(economy_spec(n_jobs=400, load_factor=1.5), seed=3)


def _books(sites, flight):
    """What the two hosts must agree on, tids and ids left out."""
    return {
        "contracts": [len(site.contracts) for site in sites],
        "revenue": [site.revenue for site in sites],
        "quotes": [(site.quotes_issued, site.quotes_declined) for site in sites],
        "settlements": [
            (e["site_id"], e["outcome"], e["price"], e["t"])
            for e in flight.recording().of_kind("settlement")
        ],
    }


def _simulated():
    sim = Simulator()
    sites = [
        MarketSite(
            sim,
            spec.site_id,
            spec.slots,
            make_heuristic(spec.heuristic, **dict(spec.heuristic_params)),
            admission=SlackAdmission(
                threshold=spec.threshold, discount_rate=spec.discount_rate
            ),
        )
        for spec in SPECS
    ]
    flight = FlightRecorder(clock_domain="sim")
    run_market(_trace(), sites, flight=flight)
    return _books(sites, flight)


def _served(journal):
    sim = Simulator()
    flight = FlightRecorder(journal, clock_domain="wall")
    obs = Observability(spans=False)  # what `repro serve` builds with no --trace-out
    service = LiveService(
        LiveConfig(sites=SPECS),
        obs=obs,
        clock=SimClock(sim),
        flight=flight,
        executor=lambda spec: KernelExecutor(sim, spec.site_id),
    )
    for arrival, runtime, value, decay, bound, _estimate in _trace().iter_rows():
        request = BidRequest(
            runtime=float(runtime),
            value=float(value),
            decay=float(decay),
            bound=None if math.isinf(bound) else float(bound),
            client_id="client",
            argv=None,
        )
        sim.schedule_at(float(arrival), service.handle_bids, [request], tag="bid")
    sim.run()
    assert service.idle and not service.errors
    Coroutine(sim, service.drain())
    sim.run()
    flight.close()
    # what a long-lived server must not accumulate per bid
    assert obs.spans is None
    assert flight.events == [] and flight.seq > 400
    assert obs.registry.counter("tasks.completed").value > 50
    return _books(service.sites, flight)


def test_the_service_on_the_kernel_is_the_simulated_market(tmp_path):
    journal = str(tmp_path / "served.jsonl")
    simulated, served = _simulated(), _served(journal)
    assert sum(simulated["contracts"]) > 50, "the scenario is vacuous"
    assert min(simulated["quotes"])[1] > 0, "nothing was ever declined"
    # exact: floats compared with ==, order included
    assert served == simulated

    recording = read_recording(journal)
    report = audit_recording(recording)
    assert report.ok, report.violations
    # every bid left its write-ahead intent, every site its closing books
    intents = [e for e in recording.of_kind("intent") if e["action"] == "accept"]
    assert len(intents) == 400
    assert [e["site_id"] for e in recording.of_kind("site_summary")] == [
        spec.site_id for spec in SPECS
    ]


def test_the_hosted_run_is_deterministic(tmp_path):
    first = _served(str(tmp_path / "a.jsonl"))
    second = _served(str(tmp_path / "b.jsonl"))
    assert first == second
