"""Integration tests: full traces through simulate_site."""

import pytest

from repro.scheduling import FCFS, FirstPrice, FirstReward, PresentValue, SRPT
from repro.site import SlackAdmission, simulate_site
from repro.workload import economy_spec, generate_trace, millennium_spec


def small_economy(n=300, load=1.0, **kwargs):
    return generate_trace(economy_spec(n_jobs=n, load_factor=load, **kwargs), seed=42)


class TestEndToEnd:
    def test_all_tasks_reach_terminal_state(self):
        trace = small_economy()
        result = simulate_site(trace, FirstPrice(), processors=16)
        assert all(t.finished for t in result.tasks)
        assert result.ledger.completed == len(trace)
        assert result.ledger.rejected == 0

    def test_deterministic_given_same_trace(self):
        trace = small_economy()
        a = simulate_site(trace, FirstPrice(), processors=16)
        b = simulate_site(trace, FirstPrice(), processors=16)
        assert a.total_yield == b.total_yield
        assert a.sim.now == b.sim.now

    def test_yield_bounded_by_max_value(self):
        trace = small_economy()
        result = simulate_site(trace, FirstPrice(), processors=16)
        assert result.total_yield <= trace.value.sum() + 1e-9

    def test_heuristics_agree_on_underloaded_site(self):
        # with virtually no contention every heuristic earns ~max value
        trace = generate_trace(economy_spec(n_jobs=100, load_factor=0.05), seed=1)
        totals = {
            h.name: simulate_site(trace, h, processors=16).total_yield
            for h in [FCFS(), SRPT(), FirstPrice(), PresentValue(0.01)]
        }
        values = list(totals.values())
        assert max(values) - min(values) < 0.05 * trace.value.sum()
        assert min(values) > 0.9 * trace.value.sum()

    def test_value_scheduling_beats_fcfs_when_penalties_bounded(self):
        trace = small_economy(n=500, load=1.5, penalty_bound=0.0)
        fcfs = simulate_site(trace, FCFS(), processors=16).total_yield
        fp = simulate_site(trace, FirstPrice(), processors=16).total_yield
        assert fp > fcfs

    def test_cost_based_beats_firstprice_when_penalties_unbounded(self):
        # the Figure 5 effect: with unbounded penalties, ignoring cost is
        # catastrophic — FirstReward(alpha=0) dominates FirstPrice
        trace = small_economy(n=500, load=1.5)
        fp = simulate_site(trace, FirstPrice(), processors=16).total_yield
        fr = simulate_site(
            trace, FirstReward(alpha=0.0, discount_rate=0.01), processors=16
        ).total_yield
        assert fr > fp

    def test_makespan_at_least_work_over_capacity(self):
        trace = small_economy()
        result = simulate_site(trace, FCFS(), processors=16)
        assert result.sim.now >= trace.total_work / 16 - 1e-6

    def test_keep_records_false_still_aggregates(self):
        trace = small_economy(n=100)
        result = simulate_site(trace, FirstPrice(), processors=16, keep_records=False)
        assert result.ledger.records == []
        assert result.ledger.completed == 100
        assert result.total_yield != 0.0


class TestWithAdmission:
    def test_overload_sheds_tasks(self):
        trace = small_economy(n=500, load=3.0)
        result = simulate_site(
            trace,
            FirstReward(alpha=0.3, discount_rate=0.01),
            processors=16,
            admission=SlackAdmission(threshold=180.0, discount_rate=0.01),
        )
        assert result.ledger.rejected > 0
        assert result.ledger.completed + result.ledger.rejected == 500

    def test_admission_improves_overloaded_yield(self):
        trace = small_economy(n=600, load=3.0)
        without = simulate_site(trace, FirstPrice(), processors=16)
        trace2 = small_economy(n=600, load=3.0)
        with_ac = simulate_site(
            trace2,
            FirstPrice(),
            processors=16,
            admission=SlackAdmission(threshold=180.0, discount_rate=0.01),
        )
        assert with_ac.yield_rate > without.yield_rate

    def test_very_high_threshold_rejects_nearly_everything(self):
        trace = small_economy(n=200)
        result = simulate_site(
            trace,
            FirstPrice(),
            processors=16,
            admission=SlackAdmission(threshold=1e9),
        )
        assert result.ledger.rejected >= 199  # zero-decay tasks could sneak in


class TestMillenniumMix:
    def test_preemptive_run_completes(self):
        trace = generate_trace(millennium_spec(n_jobs=320), seed=7)
        result = simulate_site(trace, PresentValue(0.01), processors=16, preemption=True)
        assert result.ledger.completed == 320
        # bounded at zero: total yield can never be negative
        assert result.total_yield >= 0.0

    def test_bounded_yields_never_below_floor(self):
        trace = generate_trace(millennium_spec(n_jobs=160), seed=8)
        result = simulate_site(trace, FirstPrice(), processors=16)
        for record in result.ledger.records:
            assert record.realized_yield >= -1e-9


class TestFaultRunLeavesTheCallersPolicyAlone:
    """``simulate_site`` never writes its *admission* argument.  A fault
    run used to (the spec's slack inflation, never restored): fault-free
    29 289.54, one faulted run, and the same fault-free call returned
    20 932.41.  Pricing failure is now the caller's policy, used as
    given."""

    def _run(self, admission, **kwargs):
        trace = generate_trace(economy_spec(n_jobs=300, load_factor=1.5), seed=1)
        return simulate_site(
            trace, FirstReward(0.3, 0.01), processors=16, admission=admission, **kwargs
        ).total_yield

    def test_fault_free_yield_is_the_same_before_and_after_a_fault_run(self):
        from repro.faults import FaultSpec

        admission = SlackAdmission(180.0, slack_inflation=0.5)
        attributes = dict(vars(admission))
        before = self._run(admission)
        faulted = self._run(admission, faults=FaultSpec(mttf=2000.0, mttr=50.0))
        after = self._run(admission)
        assert faulted != before, "the faults never struck"
        assert after == before == pytest.approx(20932.41, abs=0.01)
        assert vars(admission) == attributes


class TestObservedRunLeavesTheCallersPolicyAlone:
    """The admission metrics are published from the decision the engine
    hands its observer.  The driver used to plant the first observer's
    registry on the caller's policy, which then published into it for
    ever: three runs (observer A, none, observer B) left A with 600
    evaluations and B with none."""

    def test_each_observer_sees_its_own_run_and_the_policy_is_untouched(self):
        from repro.obs import Observability

        trace = generate_trace(economy_spec(n_jobs=200, load_factor=1.5), seed=1)
        admission = SlackAdmission(180.0)
        before = dict(vars(admission))
        first = Observability(spans=False)
        second = Observability(spans=False)
        for obs in (first, None, second):
            simulate_site(
                trace, FirstReward(0.3, 0.01), processors=16, admission=admission, obs=obs
            )
        for obs in (first, second):
            snap = obs.registry.snapshot()
            assert snap["admission.evaluations"]["value"] == 200
            assert snap["admission.present_value"]["count"] == 200
            assert snap["admission.displacement_cost"]["count"] == 200
            assert (
                snap["tasks.accepted"]["value"] + snap["tasks.rejected"]["value"] == 200
            )
        assert first.registry.snapshot() == second.registry.snapshot()
        assert vars(admission) == before
