"""The metrics registry: counters, gauges, and time-weighted histograms.

Every instrumented layer (kernel, site, admission, scheduling, market,
faults) publishes into one :class:`MetricsRegistry` per run.  Metrics are
pure observers — they never touch the simulation clock, the event queue,
or any RNG stream, so an attached registry cannot perturb results.
"Not observed" is ``obs=None`` at the substrate, not a registry that
discards what it is handed.
"""

from __future__ import annotations

import math
from typing import Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """A point-in-time value (last write wins); tracks its min/max."""

    __slots__ = ("name", "value", "min", "max", "writes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.writes = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.writes += 1

    def snapshot(self) -> dict:
        if self.writes == 0:
            return {"type": "gauge", "value": None, "writes": 0}
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "writes": self.writes,
        }

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """Streaming summary of observed samples (count/sum/min/max/mean)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


class TimeWeightedGauge:
    """A gauge whose mean is weighted by how long each value was held.

    ``observe(value, now)`` closes the interval since the previous
    observation at the previous value — the right statistic for queue
    depth, busy nodes, nodes down, and similar step functions of
    simulated time.
    """

    __slots__ = ("name", "value", "min", "max", "_last_time", "_area", "_span", "writes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._last_time: Optional[float] = None
        self._area = 0.0  # integral of value over observed time
        self._span = 0.0  # total observed time
        self.writes = 0

    def observe(self, value: float, now: float) -> None:
        if self._last_time is not None and now > self._last_time:
            dt = now - self._last_time
            self._area += self.value * dt
            self._span += dt
        self._last_time = now
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.writes += 1

    @property
    def time_weighted_mean(self) -> float:
        return self._area / self._span if self._span > 0 else self.value

    def snapshot(self) -> dict:
        if self.writes == 0:
            return {"type": "time_weighted", "writes": 0}
        return {
            "type": "time_weighted",
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "mean": self.time_weighted_mean,
            "writes": self.writes,
        }

    def __repr__(self) -> str:
        return f"<TimeWeightedGauge {self.name}~{self.time_weighted_mean:g}>"


class MetricsRegistry:
    """Named instruments, created on first use.

    ``counter``/``gauge``/``histogram``/``time_weighted`` are get-or-create:
    the first caller fixes the instrument's type and later callers share
    it, so independent layers can publish into one metric (e.g. both the
    site and the driver bumping ``tasks.completed``).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def time_weighted(self, name: str) -> TimeWeightedGauge:
        return self._get(name, TimeWeightedGauge)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """``{name: instrument snapshot}`` for JSON export, sorted by name."""
        return {name: self._instruments[name].snapshot() for name in self.names()}

    def summary_rows(self) -> list[dict]:
        """Flat rows (one per metric) for ``repro.metrics.tables.format_table``."""
        rows = []
        for name, snap in self.snapshot().items():
            row = {"metric": name, "type": snap["type"]}
            for key in ("value", "count", "sum", "min", "max", "mean"):
                if key in snap and snap[key] is not None:
                    row[key] = snap[key]
            rows.append(row)
        return rows

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self)} instruments>"
