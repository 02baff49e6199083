"""Sensitivity analysis over the workload's interacting characteristics.

§4.1: "Many interacting characteristics of the job mixes play key roles
in determining the results. ... Other trace properties that affect
results include the distributions of value, decay, job duration, and
inter-arrival times."  This harness maps that interaction surface: the
FirstReward-over-FirstPrice improvement across a value-skew × decay-skew
grid (at fixed load), and across a load × decay-horizon grid (at fixed
skews).
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.experiments.common import FigureResult
from repro.experiments.parallel import run_site_cell, sweep
from repro.metrics.compare import improvement_percent
from repro.workload.millennium import economy_spec

ALPHA = 0.3
DISCOUNT_RATE = 0.01

_FIRSTREWARD = ("firstreward", {"alpha": ALPHA, "discount_rate": DISCOUNT_RATE})


def _improvement_grid(
    axes: tuple[str, str],
    specs: dict,
    seeds: Sequence[int],
    workers: Optional[int],
) -> tuple[list[dict], list[list[dict]]]:
    """FirstReward's improvement over FirstPrice at every grid point of
    *specs* (``{(a, b): workload spec}``), one row per point."""
    cells = {}
    for point, spec in specs.items():
        cells[point, "firstprice"] = partial(run_site_cell, spec, ("firstprice", {}))
        cells[point, "firstreward"] = partial(run_site_cell, spec, _FIRSTREWARD)

    def rows(v: dict) -> list[dict]:
        return [
            {
                **dict(zip(axes, point)),
                "improvement_pct": improvement_percent(
                    v[point, "firstreward"], v[point, "firstprice"]
                ),
            }
            for point in specs
        ]

    return sweep(cells, rows, seeds, workers)


def run_skew_grid(
    n_jobs: int = 1500,
    seeds: Sequence[int] = (0,),
    value_skews: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    decay_skews: Sequence[float] = (1.0, 3.0, 5.0, 7.0),
    load_factor: float = 0.9,
    processors: int = 16,
    workers: Optional[int] = None,
) -> FigureResult:
    """FirstReward improvement across the (value skew × decay skew) grid."""
    result = FigureResult(
        figure="sensitivity-skews",
        title=f"FirstReward(alpha={ALPHA}) improvement over FirstPrice, "
        "value skew x decay skew (unbounded penalties)",
        notes=[f"economy mix, load {load_factor}, n={n_jobs}, seeds={list(seeds)}"],
    )
    specs = {
        (vskew, dskew): economy_spec(
            n_jobs=n_jobs,
            value_skew=vskew,
            decay_skew=dskew,
            load_factor=load_factor,
            processors=processors,
        )
        for vskew in value_skews
        for dskew in decay_skews
    }
    result.rows, result.seed_rows = _improvement_grid(
        ("value_skew", "decay_skew"), specs, seeds, workers
    )
    return result


def run_load_horizon_grid(
    n_jobs: int = 1500,
    seeds: Sequence[int] = (0,),
    load_factors: Sequence[float] = (0.6, 0.8, 0.9, 1.0),
    horizons: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    processors: int = 16,
    workers: Optional[int] = None,
) -> FigureResult:
    """FirstReward improvement across the (load × decay-horizon) grid.

    The horizon is how many mean runtimes of delay erase an average
    job's value — the urgency scale the paper leaves implicit.
    """
    result = FigureResult(
        figure="sensitivity-load-horizon",
        title=f"FirstReward(alpha={ALPHA}) improvement over FirstPrice, "
        "load factor x decay horizon (unbounded penalties)",
        notes=[
            f"economy mix, value skew 2, decay skew 5, n={n_jobs}, seeds={list(seeds)}"
        ],
    )
    specs = {
        (load, horizon): economy_spec(
            n_jobs=n_jobs,
            value_skew=2.0,
            decay_skew=5.0,
            load_factor=load,
            processors=processors,
            decay_horizon=horizon,
        )
        for load in load_factors
        for horizon in horizons
    }
    result.rows, result.seed_rows = _improvement_grid(
        ("load_factor", "decay_horizon"), specs, seeds, workers
    )
    return result
