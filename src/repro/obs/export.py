"""Exporters: Chrome/Perfetto ``trace_event`` JSON, a JSONL stream, a table.

Three consumers, three formats:

* ``chrome://tracing`` / https://ui.perfetto.dev — :func:`spans_to_chrome`
  emits the ``trace_event`` JSON object format (``{"traceEvents": [...]}``);
  closed spans become complete (``"ph": "X"``) events, instants become
  ``"ph": "i"`` marks, and each run/track pair gets thread-name metadata
  so lifecycle trees nest per task lane.  Simulated time maps to
  microseconds (1 sim time unit = 1 "µs").
* machine post-processing — :func:`spans_to_jsonl` streams one JSON
  object per line, ending with a ``{"meta": ...}`` line that carries the
  retention counter (``dropped``) so a truncated export is detectable.
* humans — :func:`metrics_summary` renders a registry snapshot through
  the repo's plain-text tables.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable

from repro.metrics.tables import format_table
from repro.obs.spans import Span

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.registry import MetricsRegistry

#: Simulated time units per Chrome-trace microsecond tick.
TIME_SCALE = 1.0


def _ensure_parent(path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)


# ----------------------------------------------------------------------
# Chrome trace_event format
# ----------------------------------------------------------------------

def span_to_event(span: Span) -> dict:
    """One span as a ``trace_event`` dict (complete or instant)."""
    tid_label = span.track or (f"task:{span.task_id}" if span.task_id is not None else "run")
    event = {
        "name": span.name,
        "cat": span.category,
        "pid": span.run,
        "tid": tid_label,
        "ts": span.start / TIME_SCALE,
        "args": {"span_id": span.span_id, **span.args},
    }
    if span.parent_id is not None:
        event["args"]["parent_id"] = span.parent_id
    if span.task_id is not None:
        event["args"]["task_id"] = span.task_id
    if span.is_instant:
        event["ph"] = "i"
        event["s"] = "t"  # thread-scoped instant mark
    else:
        event["ph"] = "X"
        event["dur"] = span.duration / TIME_SCALE
    return event


def spans_to_chrome(spans: Iterable[Span], dropped: int = 0) -> dict:
    """All *spans* as a Chrome ``trace_event`` JSON object.

    Each run (replication, ``span.run``) becomes one trace "process" so
    multi-replication exports stay navigable.  Chrome's JSON numbers
    ``tid`` fields, so string tracks are registered via ``thread_name``
    metadata and numbered per run.
    """
    events: list[dict] = []
    track_ids: dict[tuple[int, str], int] = {}
    pids: set[int] = set()
    for span in spans:
        pid = span.run
        event = span_to_event(span)
        key = (pid, event["tid"])
        if key not in track_ids:
            track_ids[key] = len(track_ids)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": track_ids[key],
                    "args": {"name": event["tid"]},
                }
            )
        event["tid"] = track_ids[key]
        pids.add(pid)
        events.append(event)
    for pid in sorted(pids):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"run {pid}"},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "simulated", "spans_dropped": dropped},
    }


def write_chrome_trace(spans: Iterable[Span], path: str, dropped: int = 0) -> None:
    _ensure_parent(path)
    with open(path, "w") as handle:
        json.dump(spans_to_chrome(spans, dropped=dropped), handle)
        handle.write("\n")


# ----------------------------------------------------------------------
# JSONL stream
# ----------------------------------------------------------------------

def spans_to_jsonl(spans: Iterable[Span], path: str, dropped: int = 0) -> int:
    """Write one JSON object per span plus a trailing meta line."""
    _ensure_parent(path)
    written = 0
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True))
            handle.write("\n")
            written += 1
        handle.write(json.dumps({"meta": {"spans": written, "dropped": dropped}}))
        handle.write("\n")
    return written


# ----------------------------------------------------------------------
# Human summaries
# ----------------------------------------------------------------------

def metrics_summary(registry: "MetricsRegistry", title: str = "metrics") -> str:
    rows = registry.summary_rows()
    if not rows:
        return f"{title}\n(no metrics recorded)"
    return format_table(rows, title=title)
