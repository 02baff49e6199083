"""Property tests: conservation under failover.

The conservation property is the layer's contract: however the chaos
falls, a task lineage never completes on two sites and every contract
settles exactly once — so settled value is a sum over exactly-once
settlements and nothing is double-counted.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.spec import FaultSpec
from repro.resilience import driver, simulate_resilient_market
from repro.scheduling import FirstReward
from repro.site import SlackAdmission
from repro.workload.generator import generate_trace
from repro.workload.millennium import economy_spec


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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(driver, "N_SITES", 2)  # 2 sites x 4 nodes
            result = simulate_resilient_market(
                trace,
                heuristic_factory=lambda: FirstReward(0.2, 0.01),
                admission_factory=lambda: SlackAdmission(180.0, 0.01),
                failover_budget=budget,
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
