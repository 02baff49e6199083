"""Exporters: Chrome/Perfetto ``trace_event`` JSON and the metrics JSON.

``chrome://tracing`` / https://ui.perfetto.dev — :func:`spans_to_chrome`
emits the ``trace_event`` JSON object format (``{"traceEvents": [...]}``);
closed spans become complete (``"ph": "X"``) events, instants become
``"ph": "i"`` marks, and each run/track pair gets thread-name metadata
so lifecycle trees nest per task lane.  Simulated time maps to
microseconds (1 sim time unit = 1 "µs").  :func:`write_artifacts` writes
the trace and the observer's snapshot JSON behind the CLI's two flags.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable, Optional

from repro.obs.spans import Span

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.instrument import Observability

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


def write_artifacts(
    obs: "Observability", trace_out: Optional[str], metrics_out: Optional[str]
) -> list[str]:
    """What ``--trace-out`` / ``--metrics-out`` ask for, on every
    subcommand that takes them: the Chrome trace of *obs*'s spans and
    the metrics JSON of its snapshot.  Returns one ``wrote …`` line per
    file for the caller to print."""
    wrote = []
    if trace_out:
        spans = obs.spans
        write_chrome_trace(spans.finished, trace_out, dropped=spans.dropped)
        suffix = f", {spans.dropped} dropped" if spans.dropped else ""
        wrote.append(f"wrote {trace_out} ({len(spans)} spans{suffix})")
    if metrics_out:
        _ensure_parent(metrics_out)
        with open(metrics_out, "w") as handle:
            json.dump(obs.snapshot(), handle, sort_keys=True, indent=1)
            handle.write("\n")
        wrote.append(f"wrote {metrics_out}")
    return wrote
