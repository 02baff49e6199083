"""Tests for gantt rendering and run reports."""

import pytest

from repro.analysis import SiteTimeline, render_gantt, run_report
from repro.analysis.report import format_report
from repro.obs import Observability
from repro.scheduling import FCFS, FirstPrice
from repro.sim import Simulator
from repro.site import TaskServiceSite
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction


def make_task(arrival, runtime, value=100.0, decay=1.0, bound=None):
    return Task(arrival, runtime, LinearDecayValueFunction(value, decay, bound))


def run(tasks, heuristic=None, processors=1, **kwargs):
    sim = Simulator()
    obs = Observability()
    site = TaskServiceSite(sim, processors, heuristic or FCFS(), obs=obs, **kwargs)
    for t in tasks:
        sim.schedule_at(t.arrival, site.submit, t)
    sim.run()
    return SiteTimeline(obs.spans.finished, nodes=processors), site


class TestGantt:
    def test_rows_per_node(self):
        timeline, _ = run([make_task(0.0, 5.0), make_task(0.0, 5.0)], processors=2)
        text = render_gantt(timeline, width=20)
        assert "node  0" in text and "node  1" in text

    def test_idle_time_renders_dots(self):
        timeline, _ = run([make_task(0.0, 5.0)], processors=2)
        lines = render_gantt(timeline, width=10, legend=False).splitlines()
        idle_row = lines[2]
        assert set(idle_row.split("|")[1]) == {"."}

    def test_preemption_marker(self):
        low = make_task(0.0, 100.0, value=10.0, decay=0.01)
        high = make_task(10.0, 10.0, value=1000.0, decay=0.01)
        timeline, _ = run([low, high], FirstPrice(), preemption=True)
        assert "~" in render_gantt(timeline, width=40, legend=False)

    def test_crash_marker(self):
        sim = Simulator()
        obs = Observability()
        site = TaskServiceSite(sim, 1, FCFS(), obs=obs)
        sim.schedule_at(0.0, site.submit, make_task(0.0, 10.0))
        sim.schedule_at(4.0, site.crash_node, 0)
        sim.schedule_at(6.0, site.repair_node, 0)
        sim.run()
        row = render_gantt(
            SiteTimeline(obs.spans.finished, nodes=1), width=16, legend=False
        ).splitlines()[1].split("|")[1]
        assert row[3] == "~" and row[4:6] == ".."  # killed at 4, down until 6

    def test_empty_timeline(self):
        assert render_gantt(SiteTimeline([])) == "(empty timeline)"

    def test_legend_lists_tasks(self):
        t = make_task(0.0, 5.0)
        timeline, _ = run([t])
        assert f"task{t.tid}" in render_gantt(timeline)

    def test_custom_horizon_extends_axis(self):
        timeline, _ = run([make_task(0.0, 5.0)])
        text = render_gantt(timeline, width=10, until=10.0, legend=False)
        row = text.splitlines()[1].split("|")[1]
        assert row.endswith(".....")  # second half idle


class TestRunReport:
    def test_sections_present(self):
        timeline, site = run(
            [make_task(0.0, 5.0), make_task(0.0, 5.0, value=10.0)], processors=1
        )
        report = run_report(site.ledger, timeline)
        assert report["accounting"]["completed"] == 2
        assert report["execution"]["utilization"] == pytest.approx(1.0)
        assert report["execution"]["segments"] == 2
        assert len(report["by_class"]) == 2  # low/high split

    def test_report_without_timeline(self):
        _, site = run([make_task(0.0, 5.0)])
        report = run_report(site.ledger)
        assert "execution" not in report
        assert report["accounting"]["completed"] == 1

    def test_single_class_breakdown(self):
        _, site = run([make_task(0.0, 5.0), make_task(0.0, 5.0)])
        report = run_report(site.ledger)
        assert [row["class"] for row in report["by_class"]] == ["all"]

    def test_capture_rate_bounds(self):
        timeline, site = run(
            [make_task(0.0, 5.0, decay=2.0) for _ in range(4)], processors=1
        )
        for row in run_report(site.ledger, timeline)["by_class"]:
            assert row["capture_rate"] <= 1.0 + 1e-9

    def test_format_report_renders(self):
        timeline, site = run([make_task(0.0, 5.0)])
        text = format_report(run_report(site.ledger, timeline))
        assert "accounting:" in text and "execution:" in text

    def test_queue_depth_is_reported_from_the_observers_gauge(self):
        timeline, site = run([make_task(0.0, 5.0) for _ in range(3)])
        report = run_report(site.ledger, timeline, obs=site.obs)
        assert "queue_length" not in report["execution"]
        gauge = report["telemetry"]["metrics"][f"site.queue_depth.{site.site_id}"]
        assert gauge["max"] == 2
        assert f"queue at {site.site_id}: mean" in format_report(report)

    def test_empty_ledger_report(self):
        from repro.site import YieldLedger

        report = run_report(YieldLedger())
        assert report["by_class"] == []
        assert "yield 0.0" in format_report(report)
