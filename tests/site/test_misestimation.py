"""Tests for the runtime-misestimation extension.

The paper assumes "the predicted run times runtime_i are accurate" and
defers exceedance penalties for underestimates (§4).  This extension
implements them: the scheduler plans on the declared estimate, execution
consumes the true runtime, and the value function measures delay against
the declaration — so overruns decay the price automatically.
"""

import numpy as np
import pytest

from repro.scheduling import FCFS, FirstPrice
from repro.site import SlackAdmission, simulate_site
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction
from repro.workload import economy_spec, generate_trace


def make_task(arrival, runtime, estimate, value=100.0, decay=1.0):
    return Task(
        arrival, runtime, LinearDecayValueFunction(value, decay), estimate=estimate
    )


def run_tasks(tasks, heuristic=None, processors=1, **kwargs):
    from repro.sim import Simulator
    from repro.site import TaskServiceSite

    sim = Simulator()
    site = TaskServiceSite(sim, processors, heuristic or FCFS(), **kwargs)
    for t in tasks:
        sim.schedule_at(t.arrival, site.submit, t)
    sim.run()
    return site, sim


class TestTaskModel:
    def test_estimate_defaults_to_runtime(self):
        t = Task(0.0, 10.0, LinearDecayValueFunction(1.0, 0.0))
        assert t.estimate == 10.0
        assert t.estimated_remaining == 10.0

    def test_invalid_estimate_rejected(self):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError):
            make_task(0.0, 10.0, estimate=0.0)

    def test_delay_measured_against_declaration(self):
        # declared 5, truly takes 10: finishing at 10 is 5 "late"
        t = make_task(0.0, 10.0, estimate=5.0, decay=2.0)
        assert t.delay_if_completed_at(10.0) == 5.0
        assert t.yield_if_completed_at(10.0) == 90.0

    def test_overestimate_gives_grace(self):
        # declared 20, truly takes 10: finishing at 15 is still "on time"
        t = make_task(0.0, 10.0, estimate=20.0, decay=2.0)
        assert t.delay_if_completed_at(15.0) == 0.0

    def test_preempt_updates_both_remainings(self):
        t = make_task(0.0, 10.0, estimate=6.0)
        t.submit(); t.accept(); t.start(0.0)
        t.preempt(4.0)
        assert t.remaining == pytest.approx(6.0)
        assert t.estimated_remaining == pytest.approx(2.0)


class TestEngineBehaviour:
    def test_underestimate_pays_exceedance_penalty(self):
        t = make_task(0.0, 10.0, estimate=6.0, value=100.0, decay=3.0)
        run_tasks([t])
        # completes at true runtime 10, declared 6 => delay 4 => 100 - 12
        assert t.completion == 10.0
        assert t.realized_yield == pytest.approx(100.0 - 3.0 * 4.0)

    def test_accurate_estimates_unchanged(self):
        trace = generate_trace(economy_spec(n_jobs=200), seed=0)
        assert np.array_equal(trace.estimate, trace.runtime)
        a = simulate_site(trace, FirstPrice(), 16, keep_records=False).total_yield
        b = simulate_site(trace, FirstPrice(), 16, keep_records=False).total_yield
        assert a == b

    def test_scheduler_plans_on_declared_runtime(self):
        # short-declared task jumps a FirstPrice queue even though it is
        # truly long: unit gain uses the declaration
        blocker = make_task(0.0, 20.0, estimate=20.0, value=100.0, decay=0.1)
        liar = make_task(0.0, 30.0, estimate=1.0, value=50.0, decay=0.1)
        honest = make_task(0.0, 10.0, estimate=10.0, value=100.0, decay=0.1)
        site, _ = run_tasks([blocker, liar, honest], heuristic=FirstPrice())
        # liar's declared unit gain 50/1 beats honest's 100/10
        assert liar.first_start < honest.first_start

    def test_misestimation_hurts_yield(self):
        spec = economy_spec(n_jobs=600, load_factor=1.2, penalty_bound=0.0)
        accurate = generate_trace(spec, seed=3)
        from dataclasses import replace

        noisy_spec = replace(spec, estimate_error_cv=0.8)
        noisy = generate_trace(noisy_spec, seed=3)
        assert not np.array_equal(noisy.estimate, noisy.runtime)
        # same true workload (identical streams for all other columns)
        assert np.array_equal(noisy.runtime, accurate.runtime)
        y_acc = simulate_site(accurate, FirstPrice(), 16, keep_records=False).total_yield
        y_noisy = simulate_site(noisy, FirstPrice(), 16, keep_records=False).total_yield
        assert y_noisy < y_acc

    def test_admission_projects_queue_on_declared_estimates(self):
        # the same true backlog (5 units) admits or rejects a follow-up
        # task depending on how long the backlog *declared* itself to be
        from repro.scheduling import FirstReward

        def scenario(blocker_estimate):
            blocker = make_task(
                0.0, 5.0, estimate=blocker_estimate, value=1000.0, decay=0.1
            )
            urgent = make_task(0.0, 10.0, estimate=10.0, value=100.0, decay=2.0)
            site, _ = run_tasks(
                [blocker, urgent],
                heuristic=FirstReward(0.3, 0.01),
                admission=SlackAdmission(threshold=20.0, discount_rate=0.0),
            )
            return urgent

        honest = scenario(blocker_estimate=5.0)
        assert honest.state.value != "rejected"  # waits 5, slack (100-10)/2 ok
        inflated = scenario(blocker_estimate=500.0)
        assert inflated.state.value == "rejected"  # believed wait 500 kills slack


class TestWorkloadGeneration:
    def test_noise_is_reproducible(self):
        from dataclasses import replace

        spec = replace(economy_spec(n_jobs=100), estimate_error_cv=0.5)
        a = generate_trace(spec, seed=1)
        b = generate_trace(spec, seed=1)
        assert np.array_equal(a.estimate, b.estimate)

    def test_noise_mean_tracks_truth(self):
        from dataclasses import replace

        spec = replace(economy_spec(n_jobs=20_000), estimate_error_cv=0.3)
        trace = generate_trace(spec, seed=2)
        ratio = trace.estimate / trace.runtime
        assert ratio.mean() == pytest.approx(1.0, abs=0.02)
        assert ratio.std() == pytest.approx(0.3, abs=0.05)

    def test_negative_cv_rejected(self):
        from dataclasses import replace

        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            replace(economy_spec(), estimate_error_cv=-0.1)
