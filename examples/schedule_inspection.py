#!/usr/bin/env python
"""Inspecting a schedule: timelines, gantt charts, and run reports.

Runs a small contended mix under FCFS and under FirstReward with
preemption, reads both execution timelines off the observer's spans,
and prints per-node ASCII gantt charts side by side — the clearest way
to *see* what value-based scheduling changes.

Run:  python examples/schedule_inspection.py
"""

from __future__ import annotations

import numpy as np

from repro import FCFS, FirstReward, Simulator, Task, TaskServiceSite
from repro.analysis import SiteTimeline, render_gantt, run_report
from repro.analysis.report import format_report
from repro.obs import Observability
from repro.valuefn import LinearDecayValueFunction


def build_tasks() -> list[Task]:
    """A morning's work: long cheap batch jobs plus urgent valuable ones."""
    rng = np.random.default_rng(4)
    tasks = []
    for _i in range(6):  # background batch work, all released early
        runtime = float(rng.uniform(30.0, 60.0))
        tasks.append(
            Task(
                arrival=float(rng.uniform(0.0, 10.0)),
                runtime=runtime,
                vf=LinearDecayValueFunction(value=runtime, decay=0.05, penalty_bound=0.0),
            )
        )
    for _i in range(4):  # urgent interactive jobs arriving mid-morning
        runtime = float(rng.uniform(8.0, 15.0))
        tasks.append(
            Task(
                arrival=float(rng.uniform(20.0, 60.0)),
                runtime=runtime,
                vf=LinearDecayValueFunction(value=12 * runtime, decay=4.0, penalty_bound=0.0),
            )
        )
    return sorted(tasks, key=lambda t: t.arrival)


def run_and_render(label: str, heuristic, preemption: bool) -> None:
    sim = Simulator()
    obs = Observability()
    site = TaskServiceSite(
        sim, processors=2, heuristic=heuristic, preemption=preemption, obs=obs
    )
    for template in build_tasks():
        task = Task(template.arrival, template.runtime, template.vf)
        sim.schedule_at(task.arrival, site.submit, task)
    sim.run()
    timeline = SiteTimeline(obs.spans.finished, nodes=site.processors.count)
    timeline.verify_no_overlap()
    print(f"=== {label} ===")
    print(render_gantt(timeline, width=72))
    print(format_report(run_report(site.ledger, timeline, obs)))
    print()


def main() -> None:
    run_and_render("FCFS, no preemption", FCFS(), preemption=False)
    run_and_render(
        "FirstReward(alpha=0.3), preemption on",
        FirstReward(alpha=0.3, discount_rate=0.01),
        preemption=True,
    )
    print("watch the urgent tasks (later glyphs) jump the queue — and the "
          "'~' marks where they preempted running batch work.")


if __name__ == "__main__":
    main()
