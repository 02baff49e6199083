"""Property tests: conservation under failover, breaker/health invariants.

The conservation property is the layer's contract: however the chaos
falls, a task lineage never completes on two sites and every contract
settles exactly once — so settled value is a sum over exactly-once
settlements and nothing is double-counted.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.spec import FaultSpec
from repro.resilience import ResilienceConfig, simulate_resilient_market
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.health import OUTCOME_SCORES, SiteHealth
from repro.scheduling import FirstReward
from repro.site import SlackAdmission
from repro.workload.generator import generate_trace
from repro.workload.millennium import economy_spec

VALID_MOVES = {
    ("closed", "open"),
    ("open", "half_open"),
    ("half_open", "closed"),
    ("half_open", "open"),
}


class TestBreakerProperties:
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["success", "failure", "allow", "probe"]),
                # steps up to half the cooldown: sequences cool down and probe
                st.floats(min_value=0.0, max_value=150.0, allow_nan=False),
            ),
            max_size=60,
        ),
    )
    def test_any_event_sequence_keeps_invariants(self, events):
        breaker = CircuitBreaker("s")
        now = 0.0
        for kind, delta in events:
            now += delta
            if kind == "success":
                breaker.record_success(now)
            elif kind == "failure":
                breaker.record_failure(now)
            elif kind == "allow":
                breaker.allow(now)
            else:
                breaker.note_probe()
        breaker.finalize(now)
        # every logged move is a legal edge of the state machine
        assert all((a, b) in VALID_MOVES for _, a, b in breaker.transitions)
        # timestamps are non-decreasing
        times = [t for t, _, _ in breaker.transitions]
        assert times == sorted(times)
        # books are consistent
        assert breaker.open_time >= 0.0
        assert breaker.opens == sum(
            1 for _, _, to in breaker.transitions if to == "open"
        )
        # open time never exceeds the elapsed horizon
        assert breaker.open_time <= now + 1e-9
        # a CLOSED breaker always admits work
        if breaker.state is BreakerState.CLOSED:
            assert breaker.allow(now)


class TestHealthProperties:
    @given(
        outcomes=st.lists(
            st.sampled_from(sorted(OUTCOME_SCORES)), min_size=1, max_size=80
        ),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_scores_stay_in_unit_interval(self, outcomes, alpha):
        health = SiteHealth("s", initial=1.0)
        for outcome in outcomes:
            score = health.observe(outcome, alpha)
            assert 0.0 <= score <= 1.0
            assert 0.0 <= health.breach_rate <= 1.0
        assert health.events == len(outcomes)
        summary = health.summary()
        counted = sum(
            summary[key]
            for key in ("completions", "late", "restarts", "breaches")
        )
        assert counted == len(outcomes)

    @given(
        alpha=st.floats(min_value=0.01, max_value=1.0),
        n=st.integers(min_value=1, max_value=50),
    )
    def test_repeated_breaches_converge_to_zero_monotonically(self, alpha, n):
        health = SiteHealth("s", initial=1.0)
        last = 1.0
        for _ in range(n):
            score = health.observe("breach", alpha)
            assert score <= last + 1e-12
            last = score


class TestConservationUnderChaos:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        mttf=st.sampled_from([250.0, 500.0, 1000.0]),
        budget=st.integers(min_value=0, max_value=3),
    )
    def test_no_lineage_completes_twice_and_value_settles_once(
        self, seed, mttf, budget
    ):
        spec = economy_spec(
            n_jobs=80, value_skew=3.0, decay_skew=5.0, load_factor=1.5,
            processors=8, penalty_bound=2.0,
        )
        trace = generate_trace(spec, seed=seed)
        result = simulate_resilient_market(
            trace,
            heuristic_factory=lambda: FirstReward(0.2, 0.01),
            n_sites=2,
            processors_per_site=4,
            admission_factory=lambda: SlackAdmission(180.0, 0.01),
            config=ResilienceConfig(enabled=True, failover_budget=budget),
            faults=FaultSpec(mttf=mttf, mttr=100.0, restart="abandon"),
            fault_seed=seed,
        )
        manager = result.manager
        # conservation: a task never completes on two sites
        assert manager.double_completions == 0
        contracts = [c for site in result.sites for c in site.contracts]
        # every contract settled exactly once (settle raises on a second
        # call, so 'settled and finite price' is the observable invariant)
        assert all(c.settled for c in contracts)
        assert all(
            c.actual_price is not None and math.isfinite(c.actual_price)
            for c in contracts
        )
        # settled value is conserved: site revenue is exactly the sum of
        # exactly-once settlements
        total = sum(c.actual_price for c in contracts)
        assert math.isclose(
            total, sum(s.revenue for s in result.sites), rel_tol=1e-9, abs_tol=1e-6
        )
        # each lineage respects its failover budget
        assert all(
            lineage.attempts <= max(budget, 0) for lineage in manager.lineages
        )
        # failover accounting is internally consistent
        stats = manager.stats
        assert stats.failovers_completed <= stats.failovers_contracted
        assert stats.failovers_contracted <= stats.failovers_attempted
        assert stats.value_recovered >= 0.0
