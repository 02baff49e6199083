"""Post-hoc analysis of site runs: timelines, gantt charts, reports.

The site engine reports what it does to its observer
(:class:`repro.obs.Observability`); a :class:`SiteTimeline` reads the
observer's ``running`` spans back as execution segments.  On top of that:

* :mod:`repro.analysis.gantt` renders per-node ASCII gantt charts,
* :mod:`repro.analysis.report` summarizes a run (delay distributions,
  per-class earnings, utilization, the observer's telemetry).
"""

from repro.analysis.curves import render_curves
from repro.analysis.gantt import render_gantt
from repro.analysis.report import run_report
from repro.analysis.timeline import ExecutionSegment, SiteTimeline

__all__ = [
    "ExecutionSegment",
    "SiteTimeline",
    "render_curves",
    "render_gantt",
    "run_report",
]
