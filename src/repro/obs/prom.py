"""Prometheus text exposition and windowed service rates.

Two small, dependency-free pieces of the live dashboard:

* :func:`prometheus_text` renders a metrics snapshot (the
  ``{name: instrument snapshot}`` mapping produced by
  :meth:`repro.obs.registry.MetricsRegistry.snapshot`) in the
  Prometheus text exposition format (version 0.0.4), so the live
  ``/metrics`` route can answer scrapers without a client library.
* :class:`RateWindow` keeps rolling windows of bid/settlement/roundtrip
  samples and derives operational rates: bids/s, acceptance %,
  revenue/s, roundtrip p50/p95.

Neither reads a clock: timestamps are supplied by the caller (the live
service passes wall seconds; tests pass literals), which keeps this
module deterministic and OBS002-clean — wall time is owned by
``repro.live`` alone.
"""

from __future__ import annotations

import math
import re
from collections import deque
from typing import Deque, Optional

#: Content type the Prometheus text format is served under.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    """``tasks.completed`` → ``repro_tasks_completed`` (spec-safe)."""
    cleaned = _NAME_SANITIZE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"repro_{cleaned}"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(
    metrics: dict[str, dict], extra_gauges: Optional[dict[str, float]] = None
) -> str:
    """Render a metrics snapshot as Prometheus exposition text.

    Counters map to ``counter``; time-weighted gauges to ``gauge``
    (their last value); histograms to ``summary`` (``_count``/``_sum`` plus mean
    as a gauge — the streaming instruments keep no quantile sketch).
    *extra_gauges* (e.g. the windowed service rates) are appended as
    plain gauges; ``None`` values are skipped.
    """
    lines: list[str] = []
    for name in sorted(metrics):
        snap = metrics[name]
        if not isinstance(snap, dict):
            continue  # tolerate non-instrument sections in a mixed snapshot
        kind = snap.get("type")
        metric = _metric_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(snap['value'])}")
        elif kind == "time_weighted":
            if snap["writes"] == 0:
                continue
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(snap['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count {_format_value(snap.get('count', 0))}")
            lines.append(f"{metric}_sum {_format_value(snap.get('sum', 0.0))}")
            if "mean" in snap:
                mean = _metric_name(f"{name}.mean")
                lines.append(f"# TYPE {mean} gauge")
                lines.append(f"{mean} {_format_value(snap['mean'])}")
    for name in sorted(extra_gauges or {}):
        value = (extra_gauges or {})[name]
        if value is None:
            continue
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else "\n"


def _percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile over a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


class RateWindow:
    """Rolling windows of service events, queried for operational rates.

    Parameters
    ----------
    window:
        Width of the rate windows, in the caller's time unit (the live
        service feeds wall seconds, so 60.0 means per-minute windows).
    max_roundtrips:
        Roundtrip latency samples retained for the percentile estimates
        (count-bounded rather than time-bounded so idle services still
        report their last latencies).
    """

    def __init__(self, window: float = 60.0, max_roundtrips: int = 512) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window!r}")
        self.window = float(window)
        self._bids: Deque[tuple[float, bool]] = deque()
        self._revenue: Deque[tuple[float, float]] = deque()
        self._roundtrips: Deque[float] = deque(maxlen=max_roundtrips)

    # ------------------------------------------------------------------
    # each note evicts what has left the window, so a service nobody
    # scrapes holds one window of events, not every event since boot
    def note_bid(self, t: float, accepted: bool) -> None:
        self._bids.append((t, accepted))
        self._evict(self._bids, t)

    def note_settlement(self, t: float, amount: float) -> None:
        self._revenue.append((t, amount))
        self._evict(self._revenue, t)

    def note_roundtrip(self, micros: float) -> None:
        self._roundtrips.append(micros)

    # ------------------------------------------------------------------
    def _evict(self, series: Deque, now: float) -> None:
        cutoff = now - self.window
        while series and series[0][0] < cutoff:
            series.popleft()

    def snapshot(self, now: float) -> dict:
        """Current windowed rates; ``None`` where no samples exist yet."""
        self._evict(self._bids, now)
        self._evict(self._revenue, now)
        bids = len(self._bids)
        accepted = sum(1 for _, ok in self._bids if ok)
        revenue = sum(amount for _, amount in self._revenue)
        roundtrips = list(self._roundtrips)
        return {
            "window_s": self.window,
            "bids_per_s": bids / self.window,
            "acceptance_pct": (100.0 * accepted / bids) if bids else None,
            "revenue_per_s": revenue / self.window,
            "roundtrip_p50_us": _percentile(roundtrips, 0.50) if roundtrips else None,
            "roundtrip_p95_us": _percentile(roundtrips, 0.95) if roundtrips else None,
        }
