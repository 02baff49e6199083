"""Replication harness: run a figure across disjoint seeds, report CIs.

The per-figure run functions average internally over their ``seeds``
argument; this harness instead runs the whole experiment once per
replication seed and reports mean ± 95% CI for every metric column —
the uncertainty EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.experiments.common import FigureResult
from repro.experiments.runner import EXPERIMENTS
from repro.metrics.stats import SeriesStats, mean_and_ci
from repro.metrics.tables import format_table

@dataclass
class ReplicatedResult:
    """Aggregated rows: coordinates plus ``SeriesStats`` per metric."""

    figure: str
    title: str
    replications: int
    rows: list[dict] = field(default_factory=list)

    def table(self) -> str:
        printable = []
        for row in self.rows:
            out = {}
            for key, value in row.items():
                out[key] = str(value) if isinstance(value, SeriesStats) else value
            printable.append(out)
        return format_table(
            printable,
            title=f"{self.figure} (mean ± 95% CI over {self.replications} replications)",
        )

    def stat(self, metric: str, **coords) -> SeriesStats:
        matches = [
            r for r in self.rows if all(r.get(k) == v for k, v in coords.items())
        ]
        if len(matches) != 1:
            raise ExperimentError(f"stat lookup {coords} matched {len(matches)} rows")
        value = matches[0][metric]
        if not isinstance(value, SeriesStats):
            raise ExperimentError(f"{metric!r} is not a metric column")
        return value


def run_replicated(
    name: str,
    replications: int = 5,
    base_seed: int = 0,
    scale: str = "quick",
    **overrides,
) -> ReplicatedResult:
    """Run *name* once per replication seed and aggregate the metrics.

    Each replication uses a single disjoint seed (``base_seed + i``); any
    ``seeds`` override is rejected — the harness owns seeding.
    """
    if "seeds" in overrides:
        raise ExperimentError("run_replicated controls the seeds; do not override them")
    if replications < 2:
        raise ExperimentError("need at least 2 replications for an interval")
    definition = EXPERIMENTS.get(name)
    if definition is None:
        raise ExperimentError(f"unknown experiment {name!r}; options: {sorted(EXPERIMENTS)}")
    # the coordinates: every other numeric column is a metric
    x, _, line, _ = definition.axes
    group_keys = (line, x)

    kwargs = dict(definition.quick if scale == "quick" else definition.full)
    kwargs.update(overrides)
    kwargs.pop("seeds", None)

    collected: dict[tuple, dict[str, list[float]]] = {}
    order: list[tuple] = []
    title = ""
    for rep in range(replications):
        result: FigureResult = definition.run(seeds=(base_seed + rep,), **kwargs)
        title = result.title
        for row in result.rows:
            coords = tuple(row[k] for k in group_keys)
            if coords not in collected:
                collected[coords] = {}
                order.append(coords)
            for key, value in row.items():
                if key in group_keys or not isinstance(value, (int, float)):
                    continue
                collected[coords].setdefault(key, []).append(float(value))

    out = ReplicatedResult(
        figure=name, title=title, replications=replications
    )
    for coords in order:
        row: dict = dict(zip(group_keys, coords))
        for metric, values in collected[coords].items():
            if len(values) != replications:
                raise ExperimentError(
                    f"metric {metric!r} at {coords} has {len(values)} samples, "
                    f"expected {replications} (non-deterministic row set?)"
                )
            row[metric] = mean_and_ci(values)
        out.rows.append(row)
    return out
