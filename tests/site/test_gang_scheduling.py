"""Tests for gang-scheduled (multi-node) tasks and EASY backfilling.

§4: "jobs are always gang-scheduled using common backfilling algorithms
with the requested number of processors."  The paper's experiments use
single-node tasks; this covers the general mechanism.
"""

import pytest

from repro.analysis import SiteTimeline
from repro.errors import AdmissionError, SchedulingError
from repro.obs import Observability
from repro.scheduling import FCFS, FirstPrice
from repro.sim import Simulator
from repro.site import SlackAdmission, TaskServiceSite
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction


def make_task(arrival, runtime, demand=1, value=100.0, decay=1.0):
    return Task(
        arrival, runtime, LinearDecayValueFunction(value, decay), demand=demand
    )


def run_site(tasks, heuristic=None, processors=4, **kwargs):
    sim = Simulator()
    obs = Observability()
    site = TaskServiceSite(sim, processors, heuristic or FCFS(), obs=obs, **kwargs)
    for t in tasks:
        sim.schedule_at(t.arrival, site.submit, t)
    sim.run()
    return site, SiteTimeline(obs.spans.finished, nodes=processors)


class TestGangDispatch:
    def test_wide_task_occupies_all_requested_nodes(self):
        wide = make_task(0.0, 10.0, demand=3)
        site, timeline = run_site([wide], processors=4)
        assert wide.state is TaskState.COMPLETED
        segments = timeline.segments_of(wide.tid)
        assert len(segments) == 3
        assert {s.node for s in segments} == {0, 1, 2}
        assert all(s.start == 0.0 and s.end == 10.0 for s in segments)

    def test_two_wide_tasks_serialize_when_they_cannot_coexist(self):
        a = make_task(0.0, 10.0, demand=3)
        b = make_task(0.0, 10.0, demand=3)
        site, _ = run_site([a, b], processors=4)
        starts = sorted((a.first_start, b.first_start))
        assert starts == [0.0, 10.0]

    def test_gang_plus_singles_pack_the_site(self):
        wide = make_task(0.0, 10.0, demand=3)
        narrow = make_task(0.0, 10.0, demand=1)
        site, timeline = run_site([wide, narrow], processors=4)
        assert wide.first_start == 0.0 and narrow.first_start == 0.0
        timeline.verify_no_overlap()

    def test_demand_exceeding_site_rejected(self):
        sim = Simulator()
        site = TaskServiceSite(sim, 2, FCFS())
        with pytest.raises(SchedulingError):
            site.submit(make_task(0.0, 1.0, demand=3))

    def test_completion_frees_all_nodes_at_once(self):
        wide = make_task(0.0, 10.0, demand=4)
        followers = [make_task(0.0, 5.0) for _ in range(4)]
        site, _ = run_site([wide, *followers], processors=4, heuristic=FCFS())
        assert all(f.first_start == 10.0 for f in followers)


class TestBackfilling:
    def test_narrow_task_backfills_past_blocked_wide_task(self):
        # 2 nodes busy until t=10; a 3-wide task (higher score) cannot fit,
        # so the narrow lower-score task runs in the gap
        blocker_a = make_task(0.0, 10.0, value=1000.0)
        blocker_b = make_task(0.0, 10.0, value=1000.0)
        wide = make_task(1.0, 5.0, demand=3, value=900.0)
        narrow = make_task(1.0, 5.0, demand=1, value=10.0)
        site, _ = run_site(
            [blocker_a, blocker_b, wide, narrow],
            processors=3, heuristic=FirstPrice(),
        )
        assert narrow.first_start == 1.0      # backfilled immediately
        assert wide.first_start >= 10.0       # waited for its full gang

    def test_all_tasks_complete_despite_skips(self):
        tasks = [make_task(0.0, 5.0, demand=d) for d in (3, 1, 2, 1, 3, 1)]
        site, timeline = run_site(tasks, processors=3)
        assert all(t.state is TaskState.COMPLETED for t in tasks)
        timeline.verify_no_overlap()
        # conservation: node-time equals sum of demand * runtime
        busy = sum(s.length for s in timeline.segments)
        assert busy == pytest.approx(sum(t.demand * t.runtime for t in tasks))


class TestGuards:
    def test_preemption_with_gangs_refused(self):
        sim = Simulator()
        site = TaskServiceSite(sim, 4, FirstPrice(), preemption=True)
        with pytest.raises(SchedulingError, match="gang"):
            site.submit(make_task(0.0, 1.0, demand=2))

    def test_slack_admission_with_gangs_refused(self):
        sim = Simulator()
        site = TaskServiceSite(
            sim, 4, FirstPrice(), admission=SlackAdmission(threshold=0.0)
        )
        with pytest.raises(AdmissionError):
            site.submit(make_task(0.0, 1.0, demand=2))

    def test_single_node_behaviour_unchanged(self):
        # the backfill loop must reduce to plain argmax for demand=1 mixes
        from repro.workload import economy_spec, generate_trace
        from repro.site import simulate_site

        trace = generate_trace(economy_spec(n_jobs=300, load_factor=1.2), seed=3)
        a = simulate_site(trace, FirstPrice(), 8, keep_records=False).total_yield
        b = simulate_site(trace, FirstPrice(), 8, keep_records=False).total_yield
        assert a == b
