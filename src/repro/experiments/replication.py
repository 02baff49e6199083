"""Replication harness: run a figure across disjoint seeds, report CIs.

The per-figure run functions average over their ``seeds`` argument; this
harness reads the per-seed rows of one such run instead and reports
mean ± 95% CI for every metric column, per ``(line, x)`` point of the
experiment's axes — the uncertainty EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.experiments.runner import EXPERIMENTS, run_experiment
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
    """Run *name* over seeds ``base_seed .. base_seed + replications - 1``
    and put a 95% interval on every metric column.

    One sweep runs every cell at every seed; each seed's rows are built
    from that seed's values alone, so replication *i* is the experiment
    run at the single seed ``base_seed + i``.  Any ``seeds`` override is
    rejected — the harness owns seeding.
    """
    if "seeds" in overrides:
        raise ExperimentError("run_replicated controls the seeds; do not override them")
    if replications < 2:
        raise ExperimentError("need at least 2 replications for an interval")
    result = run_experiment(
        name,
        scale=scale,
        seeds=range(base_seed, base_seed + replications),
        **overrides,
    )
    x, _, line, _ = EXPERIMENTS[name].axes
    out = ReplicatedResult(figure=name, title=result.title, replications=replications)
    for rows in zip(*result.seed_rows):
        row: dict = {line: rows[0][line], x: rows[0][x]}
        for metric, value in rows[0].items():
            if metric not in row and isinstance(value, (int, float)):
                row[metric] = mean_and_ci([r[metric] for r in rows])
        out.rows.append(row)
    return out
