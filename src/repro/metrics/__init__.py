"""Metrics: improvement computations, replication statistics, tables."""

from repro.metrics.compare import improvement_percent
from repro.metrics.stats import SeriesStats, mean_and_ci
from repro.metrics.tables import format_table

__all__ = [
    "SeriesStats",
    "format_table",
    "improvement_percent",
    "mean_and_ci",
]
