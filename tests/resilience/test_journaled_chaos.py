"""A resilient market journals exactly like a plain one.

Failover re-bids are ``Broker.negotiate`` rounds on the plain broker,
so a journaled chaos market audits clean — failover re-bids included,
each one a ``bid`` row of its own — and holds no ``breaker`` row: no
site is ever refused a bid.
"""

from collections import Counter

import pytest

from repro.audit import audit_recording
from repro.obs.flight import FlightRecorder
from repro.resilience import simulate_resilient_market

from tests.resilience.chaos_cell import (
    N_JOBS,
    admission,
    cell_inputs,
    heuristic,
    journaled_chaos_cell,
)

#: (seed, failover budget) -> total revenue of the cell; budget 0 is the
#: plain market under the same chaos
REVENUE = {
    (0, 0): 13884.732, (0, 1): 17085.365, (0, 3): 18763.756,
    (1, 0): 14987.408, (1, 1): 19462.525, (1, 3): 17865.470,
}


@pytest.mark.parametrize("seed,budget", sorted(REVENUE))
def test_a_journaled_chaos_market_audits_clean(seed, budget):
    flight = FlightRecorder()
    result, manager = journaled_chaos_cell(seed, budget, flight)
    recording = flight.recording()

    report = audit_recording(recording)
    assert report.ok, Counter(v["code"] for v in report.violations)

    kinds = Counter(event["kind"] for event in recording.events)
    assert kinds["breaker"] == 0
    # every round is on the record: the trace's bids plus one per re-bid
    assert kinds["bid"] == N_JOBS + manager.stats.failovers_attempted
    assert kinds["bid"] == manager.broker.negotiations
    assert kinds["award"] == sum(len(site.contracts) for site in result.sites)
    if budget:
        assert manager.stats.failovers_attempted > 0

    # journaling changes nothing: same books as the unjournaled driver
    trace, faults = cell_inputs(seed)
    reference = simulate_resilient_market(
        trace,
        heuristic_factory=heuristic,
        admission_factory=admission,
        failover_budget=budget,
        faults=faults,
        fault_seed=seed,
    )
    assert result.total_revenue == reference.total_revenue
    assert result.total_revenue == pytest.approx(REVENUE[seed, budget], abs=1e-3)
    assert manager.stats.summary() == reference.manager.stats.summary()
