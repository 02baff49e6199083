"""Tests for the span-built execution timeline and derived statistics."""

import pytest

from repro.analysis import SiteTimeline
from repro.obs import Observability
from repro.scheduling import FCFS, FirstPrice
from repro.sim import Simulator
from repro.site import TaskServiceSite
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction
from repro.workload import economy_spec, generate_trace


def make_task(arrival, runtime, value=100.0, decay=1.0, bound=None):
    return Task(arrival, runtime, LinearDecayValueFunction(value, decay, bound))


def run_with_timeline(tasks, heuristic=None, processors=1, **kwargs):
    sim = Simulator()
    obs = Observability()
    site = TaskServiceSite(sim, processors, heuristic or FCFS(), obs=obs, **kwargs)
    for t in tasks:
        sim.schedule_at(t.arrival, site.submit, t)
    sim.run()
    return SiteTimeline(obs.spans.finished, nodes=processors), site


class TestSegments:
    def test_single_task_single_segment(self):
        t = make_task(0.0, 10.0)
        timeline, _ = run_with_timeline([t])
        assert len(timeline.segments) == 1
        seg = timeline.segments[0]
        assert (seg.start, seg.end, seg.final) == (0.0, 10.0, True)
        assert seg.length == 10.0
        assert seg.tid == t.tid

    def test_serial_tasks_on_one_node(self):
        a, b = make_task(0.0, 5.0), make_task(0.0, 3.0)
        timeline, _ = run_with_timeline([a, b])
        rows = timeline.node_rows()
        assert len(rows[0]) == 2
        assert rows[0][0].end <= rows[0][1].start

    def test_preemption_splits_into_segments(self):
        low = make_task(0.0, 100.0, value=10.0, decay=0.01)
        high = make_task(10.0, 10.0, value=1000.0, decay=0.01)
        timeline, _ = run_with_timeline([low, high], FirstPrice(), preemption=True)
        low_segments = timeline.segments_of(low.tid)
        assert len(low_segments) == 2
        assert not low_segments[0].final
        assert low_segments[0].end == 10.0
        assert low_segments[1].final
        assert timeline.preemption_count() == 1
        # total executed time equals the runtime
        assert sum(s.length for s in low_segments) == pytest.approx(100.0)

    def test_makespan(self):
        a, b = make_task(0.0, 5.0), make_task(0.0, 7.0)
        timeline, _ = run_with_timeline([a, b], processors=2)
        assert timeline.makespan == 7.0

    def test_cancelled_queued_task_has_no_segment(self):
        blocker = make_task(0.0, 100.0, value=1000.0, decay=0.1)
        doomed = make_task(0.0, 5.0, value=10.0, decay=1.0, bound=0.0)
        timeline, _ = run_with_timeline(
            [blocker, doomed], FirstPrice(), discard_expired=True
        )
        assert timeline.segments_of(doomed.tid) == []

    def test_crash_killed_execution_is_a_segment(self):
        """A run a crash cut short was time on the node: it is on the
        timeline, not final, and counts as busy."""
        sim = Simulator()
        obs = Observability()
        site = TaskServiceSite(sim, 1, FCFS(), obs=obs)
        task = make_task(0.0, 10.0)
        sim.schedule_at(0.0, site.submit, task)
        sim.schedule_at(4.0, site.crash_node, 0)
        sim.schedule_at(6.0, site.repair_node, 0)
        sim.run()
        timeline = SiteTimeline(obs.spans.finished, nodes=1)
        assert [(s.start, s.end, s.final) for s in timeline.segments_of(task.tid)] == [
            (0.0, 4.0, False),
            (6.0, 16.0, True),
        ]
        assert timeline.utilization() == pytest.approx(0.875)
        timeline.verify_no_overlap()
        # a crash is not a preemption: the segment says which it was
        assert timeline.segments_of(task.tid)[0].ended_by == "crashed"
        assert timeline.preemption_count() == 0

    def test_breached_run_is_not_final(self):
        from repro.faults.restart import AbandonRestart

        sim = Simulator()
        obs = Observability()
        site = TaskServiceSite(sim, 1, FCFS(), obs=obs, restart_policy=AbandonRestart())
        task = make_task(0.0, 10.0)
        sim.schedule_at(0.0, site.submit, task)
        sim.schedule_at(4.0, site.crash_node, 0)
        sim.run()
        [segment] = SiteTimeline(obs.spans.finished, nodes=1).segments
        assert (segment.start, segment.end, segment.final) == (0.0, 4.0, False)


class TestInvariantsAndStats:
    def test_no_overlap_on_random_trace(self):
        trace = generate_trace(economy_spec(n_jobs=200, load_factor=1.5, processors=4), seed=5)
        timeline, _ = run_with_timeline(
            trace.to_tasks(), FirstPrice(), processors=4, preemption=True
        )
        timeline.verify_no_overlap()  # raises on violation
        assert 0.0 < timeline.utilization() <= 1.0

    def test_a_fig3_sized_preemptive_run_agrees_with_the_engines_books(self):
        from repro.experiments.fig3 import fig3_spec
        from repro.scheduling import PresentValue
        from repro.site import simulate_site

        spec = fig3_spec(value_skew=4.0, n_jobs=1500)
        obs = Observability()
        result = simulate_site(
            generate_trace(spec, seed=0), PresentValue(0.01), spec.processors,
            preemption=True, obs=obs,
        )
        timeline = SiteTimeline(obs.spans.finished, nodes=spec.processors)
        timeline.verify_no_overlap()
        preemptions = sum(t.preemptions for t in result.tasks)
        assert timeline.preemption_count() == preemptions > 0
        assert len(timeline.segments) == len(result.tasks) + preemptions
        assert timeline.makespan == result.sim.now
        assert timeline.utilization() == pytest.approx(
            result.site.processors.utilization(result.sim.now), rel=1e-12
        )

    def test_utilization_fully_busy(self):
        a, b = make_task(0.0, 5.0), make_task(0.0, 5.0)
        timeline, _ = run_with_timeline([a, b])
        assert timeline.utilization() == pytest.approx(1.0)

    def test_utilization_half_idle_with_two_nodes(self):
        timeline, site = run_with_timeline([make_task(0.0, 10.0)], processors=2)
        assert timeline.utilization() == pytest.approx(0.5)
        assert timeline.utilization() == site.processors.utilization(site.clock.now)

    def test_queue_length_stats(self):
        """Queue depth over time is the observer's per-site gauge."""
        tasks = [make_task(0.0, 10.0) for _ in range(3)]
        _, site = run_with_timeline(tasks)
        depth = site.obs.registry.time_weighted(f"site.queue_depth.{site.site_id}")
        assert depth.max == 2
        assert 0.0 < depth.time_weighted_mean <= 2.0
        busy = site.obs.registry.time_weighted(f"site.busy_nodes.{site.site_id}")
        assert busy.max == 1

    def test_empty_timeline(self):
        timeline = SiteTimeline([])
        assert timeline.segments == []
        assert timeline.makespan == 0.0
        assert timeline.utilization() == 0.0
        assert timeline.preemption_count() == 0


class TestOneSiteOneRun:
    """Node ids and simulated time restart per site and per run, so a
    shared observer's spans are read one site and one run at a time."""

    def test_each_site_of_a_market_has_its_own_timeline(self):
        from repro.market import MarketSite, run_market

        obs = Observability()
        sim = Simulator()
        sites = [
            MarketSite(sim, site_id, count, FirstPrice(), preemption=True, obs=obs)
            for site_id, count in {"small": 1, "big": 8}.items()
        ]
        trace = generate_trace(economy_spec(n_jobs=400, load_factor=2.0, processors=9), seed=2)
        run_market(trace, sites)

        with pytest.raises(ValueError, match="one site in one run"):
            SiteTimeline(obs.spans.finished)
        segments = 0
        for site in sites:
            engine = site.engine
            timeline = SiteTimeline(
                obs.spans.finished, nodes=engine.processors.count, site_id=engine.site_id
            )
            timeline.verify_no_overlap()
            assert timeline.node_count == engine.processors.count
            assert timeline.utilization() * timeline.makespan == pytest.approx(
                engine.processors.utilization(sim.now) * sim.now
            )
            assert timeline.segments
            segments += len(timeline.segments)
        assert segments == len(obs.spans.of_name("running"))

    def test_each_run_of_a_sweep_has_its_own_timeline(self):
        from repro.site import simulate_site

        obs = Observability()
        spec = economy_spec(n_jobs=100, load_factor=1.5, processors=4)
        results = [
            simulate_site(generate_trace(spec, seed=seed), FirstPrice(), 4, obs=obs)
            for seed in (0, 1)
        ]
        with pytest.raises(ValueError, match="one site in one run"):
            SiteTimeline(obs.spans.finished, nodes=4)
        for run, result in enumerate(results):
            timeline = SiteTimeline(obs.spans.finished, nodes=4, run=run)
            timeline.verify_no_overlap()
            assert {s.tid for s in timeline.segments} == {t.tid for t in result.tasks}
            assert timeline.utilization() == pytest.approx(
                result.site.processors.utilization(result.sim.now)
            )
