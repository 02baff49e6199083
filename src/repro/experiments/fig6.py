"""Figure 6 — admission control: yield rate vs load factor.

Paper: "Admission control allows sites to select tasks with high reward
and low risk in the current candidate schedule.  The graph gives the
yield per unit of time for task streams with increasing loads along the
x-axis, and different values of α in the FirstReward heuristic."
Workload: 5000 jobs, exponential durations and inter-arrivals, unbounded
penalties, value skew 3, decay skew 5, discount 1%, slack threshold 180,
plus a FirstPrice-without-admission-control line.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.experiments.common import FigureResult
from repro.experiments.parallel import run_site_cell, sweep
from repro.workload.millennium import economy_spec

LOAD_FACTORS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5)
ALPHAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
VALUE_SKEW = 3.0
DECAY_SKEW = 5.0
DISCOUNT_RATE = 0.01
SLACK_THRESHOLD = 180.0


def fig67_spec(load_factor: float, n_jobs: int = 5000, processors: int = 16):
    return economy_spec(
        n_jobs=n_jobs,
        value_skew=VALUE_SKEW,
        decay_skew=DECAY_SKEW,
        load_factor=load_factor,
        processors=processors,
        penalty_bound=None,
    )


def run_fig6(
    n_jobs: int = 5000,
    seeds: Sequence[int] = (0, 1),
    load_factors: Sequence[float] = LOAD_FACTORS,
    alphas: Sequence[float] = ALPHAS,
    processors: int = 16,
    slack_threshold: float = SLACK_THRESHOLD,
    workers: Optional[int] = None,
) -> FigureResult:
    """Regenerate Figure 6's series.

    Rows: one per (policy, load_factor) where ``policy`` is either
    ``alpha=<a>`` (FirstReward + slack admission) or
    ``firstprice-noac``; the y value is the average yield rate over the
    active interval.
    """
    result = FigureResult(
        figure="fig6",
        title="Average yield rate vs load factor under slack admission control",
        notes=[
            f"economy mix: value skew {VALUE_SKEW}, decay skew {DECAY_SKEW}, "
            f"unbounded penalties, slack threshold {slack_threshold:g}, "
            f"discount {DISCOUNT_RATE:.0%}, n={n_jobs}, seeds={list(seeds)}",
            "yield-rate units are per-time currency in this repo's unit system "
            "(the paper's absolute axis depends on its undocumented currency unit)",
        ],
    )
    admission = ("slack", {"threshold": slack_threshold, "discount_rate": DISCOUNT_RATE})
    cells = {}
    for load in load_factors:
        spec = fig67_spec(load, n_jobs=n_jobs, processors=processors)
        for alpha in alphas:
            cells[load, f"alpha={alpha:g}"] = partial(
                run_site_cell,
                spec,
                ("firstreward", {"alpha": alpha, "discount_rate": DISCOUNT_RATE}),
                metric="yield_rate",
                admission=admission,
            )
        cells[load, "firstprice-noac"] = partial(
            run_site_cell, spec, ("firstprice", {}), metric="yield_rate"
        )

    def rows(v: dict) -> list[dict]:
        return [
            {"policy": policy, "load_factor": load, "yield_rate": v[load, policy]}
            for load, policy in v
        ]

    result.rows, result.seed_rows = sweep(cells, rows, seeds, workers)
    return result
