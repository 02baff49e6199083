"""Run reports: ledger + timeline rolled into one summary dict/table.

``run_report`` combines the accounting view (yields, rejections,
penalties) with the execution view (utilization, preemptions), the
observer's telemetry (queue depth and busy nodes per site among it) and
a per-value-class breakdown — the numbers a site operator would
actually watch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.timeline import SiteTimeline
from repro.metrics.tables import format_table
from repro.site.accounting import YieldLedger


def _class_breakdown(ledger: YieldLedger) -> list[dict]:
    """Split finished tasks into low/high unit-value halves at the
    geometric midpoint (the same recovery rule Trace.value_skew_realized
    uses) and report earnings per class."""
    records = [r for r in ledger.records if r.outcome != "rejected"]
    if not records:
        return []
    unit = np.array([r.value / r.runtime for r in records])
    lo, hi = float(unit.min()), float(unit.max())
    if hi <= lo * 1.0000001:
        classes = ["all"] * len(records)
    else:
        threshold = np.sqrt(lo * hi)
        classes = ["high" if u > threshold else "low" for u in unit]
    rows = []
    for label in sorted(set(classes)):
        members = [r for r, c in zip(records, classes) if c == label]
        realized = sum(r.realized_yield for r in members)
        potential = sum(r.value for r in members)
        rows.append(
            {
                "class": label,
                "tasks": len(members),
                "realized_yield": realized,
                "potential_value": potential,
                "capture_rate": realized / potential if potential else 0.0,
            }
        )
    return rows


def run_report(
    ledger: YieldLedger,
    timeline: Optional[SiteTimeline] = None,
    obs=None,
    resilience=None,
) -> dict:
    """Structured summary of one site run.

    Returns a dict with up to five sections: ``accounting`` (ledger
    summary), ``execution`` (timeline stats, when a timeline is given),
    ``by_class`` (per-value-class earnings), ``telemetry`` (the
    observer's full snapshot — metrics, per-run rows, span retention)
    when *obs* is given, and ``resilience`` (the
    recovery books — failovers attempted/succeeded, value recovered vs
    lost to breach) when a
    :class:`~repro.resilience.manager.ResilienceManager` is given.
    """
    report = {
        "accounting": ledger.summary(),
        "by_class": _class_breakdown(ledger),
    }
    if timeline is not None:
        report["execution"] = {
            "makespan": timeline.makespan,
            "utilization": timeline.utilization(),
            "preemptions": timeline.preemption_count(),
            "segments": len(timeline.segments),
        }
    if obs is not None:
        report["telemetry"] = obs.snapshot()
    if resilience is not None:
        report["resilience"] = resilience.summary()
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of :func:`run_report`'s output."""
    lines = []
    acc = report["accounting"]
    lines.append(
        f"accounting: yield {acc['total_yield']:.1f} "
        f"(rate {acc['yield_rate']:.2f}) over {acc['active_interval']:.1f} time units"
    )
    lines.append(
        f"  tasks: {acc['submitted']} submitted / {acc['completed']} completed / "
        f"{acc['rejected']} rejected / {acc['cancelled']} cancelled; "
        f"mean delay {acc['mean_delay']:.1f}; penalties {acc['penalties_paid']:.1f}"
    )
    execution = report.get("execution")
    if execution:
        lines.append(
            f"execution: utilization {execution['utilization']:.1%}, "
            f"{execution['preemptions']} preemptions, "
            f"{execution['segments']} segments, makespan {execution['makespan']:.1f}"
        )
    if report["by_class"]:
        lines.append(format_table(report["by_class"], title="earnings by value class"))
    resilience = report.get("resilience")
    if resilience:
        lines.append(
            f"resilience: {resilience['failovers_attempted']:g} failovers "
            f"attempted / {resilience['failovers_contracted']:g} contracted / "
            f"{resilience['failovers_completed']:g} completed; "
            f"value recovered {resilience['value_recovered']:.1f} vs "
            f"lost to breach {resilience['value_lost_to_breach']:.1f}"
        )
    telemetry = report.get("telemetry")
    if telemetry and telemetry.get("metrics"):
        metrics = telemetry["metrics"]
        counters = {
            name: snap["value"]
            for name, snap in metrics.items()
            if snap.get("type") == "counter"
        }
        shown = ", ".join(f"{k}={v:g}" for k, v in sorted(counters.items())[:6])
        lines.append(f"telemetry: {len(metrics)} metrics ({shown}, ...)")
        for name, snap in sorted(metrics.items()):
            if name.startswith("site.queue_depth.") and snap["writes"]:
                lines.append(
                    f"  queue at {name.removeprefix('site.queue_depth.')}: "
                    f"mean {snap['mean']:.1f} / max {snap['max']:g}"
                )
    return "\n".join(lines)
