"""ASCII gantt rendering of a site timeline.

One row per node, one character per time bucket; each segment prints the
last two digits (or letter code) of its task id, idle time prints ``.``.
Intended for debugging small scenarios and for the examples — 5000-job
runs want the aggregate statistics instead.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.analysis.timeline import SiteTimeline

_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _glyph(tid: int) -> str:
    return _GLYPHS[tid % len(_GLYPHS)]


def render_gantt(
    timeline: SiteTimeline,
    width: int = 72,
    until: Optional[float] = None,
    legend: bool = True,
) -> str:
    """Render the timeline as text.

    Parameters
    ----------
    width:
        Characters across the time axis.
    until:
        Right edge of the axis (default: the makespan).
    legend:
        Append a task-id → glyph legend (small runs only).
    """
    span = until if until is not None else timeline.makespan
    if span <= 0:
        return "(empty timeline)"
    scale = width / span
    lines = [f"time 0 .. {span:g} ({span / width:g} per column)"]
    seen: dict[str, set[int]] = {}
    for node, row in timeline.node_rows().items():
        cells = ["."] * width
        markers = []
        for segment in row:
            lo = min(width - 1, max(0, int(math.floor(segment.start * scale))))
            hi = min(width, max(lo + 1, int(math.ceil(segment.end * scale))))
            glyph = _glyph(segment.tid)
            seen.setdefault(glyph, set()).add(segment.tid)
            for i in range(lo, hi):
                cells[i] = glyph
            if not segment.final:
                markers.append(hi - 1)
        for i in markers:  # drawn last so later segments cannot hide them
            if i < width:
                cells[i] = "~"
        lines.append(f"node {node:>2} |{''.join(cells)}|")
    if legend:
        collisions = {g: tids for g, tids in seen.items() if len(tids) > 1}
        pairs = sorted(
            (min(tids), g) for g, tids in seen.items() if len(tids) == 1
        )
        if pairs:
            lines.append(
                "legend: " + "  ".join(f"{g}=task{tid}" for tid, g in pairs)
            )
        if collisions:
            lines.append(
                "(glyphs reused for: "
                + ", ".join(f"{g}->{sorted(t)}" for g, t in sorted(collisions.items()))
                + ")"
            )
        lines.append("('~' marks a preemption or crash; '.' is idle)")
    return "\n".join(lines)
