"""End-to-end observability: spans, metrics, and exporters.

The telemetry layer (DESIGN.md S27) answers *why* a run produced its
numbers — which tasks were admitted, preempted, crashed, or allowed to
decay — without perturbing the run.  The hook methods of one
:class:`Observability` are the only channel the site engine reports
through, and its span list is the only store of what a site did:

* **Causal spans** (:mod:`repro.obs.spans`): every task gets a lifecycle
  span tree (submitted → queued → running ⇄ preempted/crashed →
  completed | aborted | breached) with parent links across the
  market/site boundary; ``running`` spans carry their site and the node
  ids they held, and every span its run, so
  :class:`repro.analysis.SiteTimeline` is a view of them.
* **Metrics registry** (:mod:`repro.obs.registry`): counters, gauges,
  histograms, and time-weighted gauges published by the hooks for the
  site, admission, market, and fault layers.  "Not observed" is
  ``obs=None``: the substrate guards each publish with one ``is not
  None`` check, so the disabled path is free and bit-inert.
* **Exporters** (:mod:`repro.obs.export`): Chrome/Perfetto
  ``trace_event`` JSON (the span file format) and a human summary
  table.
* **Flight recorder** (:mod:`repro.obs.flight`): schema-versioned
  append-only JSONL log of every market decision (bid, quote, award,
  settlement) for ``repro audit`` / ``repro replay``.
* **Prometheus exposition** (:mod:`repro.obs.prom`): text-format
  rendering of metrics snapshots plus windowed service rates for the
  live ``/metrics`` route.

Wall-clock cost is not measured here: ``python -m bench run --traced``
is the one profiler (layer budget, per-call scoring and kernel cost).

Attach with the ambient context::

    from repro.obs import Observability, observing, prometheus_text

    obs = Observability()
    with observing(obs):
        run_experiment("fig3", scale="quick")
    print(prometheus_text(obs.registry.snapshot()))
"""

from repro.obs.export import (
    spans_to_chrome,
    write_artifacts,
    write_chrome_trace,
)
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    JournalSink,
    Recording,
    read_recording,
)
from repro.obs.instrument import Observability, current, observing
from repro.obs.prom import PROMETHEUS_CONTENT_TYPE, RateWindow, prometheus_text
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    TimeWeightedGauge,
)
from repro.obs.spans import Span, SpanTracker

__all__ = [
    "FLIGHT_SCHEMA",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "FlightRecorder",
    "Histogram",
    "JournalSink",
    "MetricsRegistry",
    "Observability",
    "RateWindow",
    "Recording",
    "Span",
    "SpanTracker",
    "TimeWeightedGauge",
    "current",
    "observing",
    "prometheus_text",
    "read_recording",
    "spans_to_chrome",
    "write_artifacts",
    "write_chrome_trace",
]
