"""Figure 4 — FirstReward vs FirstPrice across α, bounded penalties.

Paper: "Improvement of FirstReward over FirstPrice as the α parameter
varies, for job mixes with bounded penalties and varying decay skew
ratios. ... The hybrid heuristic works best overall."  Value skew is
held at 2; the discount rate is 1%.

Configuration: economy mix (exponential durations/inter-arrivals),
penalties bounded at zero, load factor 0.9 — the stable near-saturation
regime where queue depths match the α trade-off the paper explores (see
EXPERIMENTS.md for the calibration analysis).
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.experiments.common import FigureResult
from repro.experiments.parallel import run_site_cell, sweep
from repro.metrics.compare import improvement_percent
from repro.workload.millennium import economy_spec

ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DECAY_SKEWS = (3.0, 5.0, 7.0)
VALUE_SKEW = 2.0
DISCOUNT_RATE = 0.01
LOAD_FACTOR = 0.9


def fig45_spec(
    decay_skew: float,
    penalty_bound: Optional[float],
    n_jobs: int = 5000,
    processors: int = 16,
):
    return economy_spec(
        n_jobs=n_jobs,
        value_skew=VALUE_SKEW,
        decay_skew=decay_skew,
        load_factor=LOAD_FACTOR,
        processors=processors,
        penalty_bound=penalty_bound,
    )


def sweep_alpha(
    figure: str,
    title: str,
    penalty_bound: Optional[float],
    n_jobs: int,
    seeds: Sequence[int],
    alphas: Sequence[float],
    decay_skews: Sequence[float],
    processors: int,
    workers: Optional[int] = None,
) -> FigureResult:
    """Shared α-sweep used by Figures 4 and 5 (they differ only in bounds)."""
    result = FigureResult(
        figure=figure,
        title=title,
        notes=[
            f"economy mix: value skew {VALUE_SKEW}, load {LOAD_FACTOR}, "
            f"discount {DISCOUNT_RATE:.0%}, "
            f"{'unbounded' if penalty_bound is None else f'bound={penalty_bound:g}'}, "
            f"n={n_jobs}, seeds={list(seeds)}",
        ],
    )
    cells = {}
    for dskew in decay_skews:
        spec = fig45_spec(dskew, penalty_bound, n_jobs=n_jobs, processors=processors)
        cells[dskew] = partial(run_site_cell, spec, ("firstprice", {}))
        for alpha in alphas:
            cells[dskew, alpha] = partial(
                run_site_cell,
                spec,
                ("firstreward", {"alpha": alpha, "discount_rate": DISCOUNT_RATE}),
            )

    def rows(v: dict) -> list[dict]:
        return [
            {
                "decay_skew": dskew,
                "alpha": alpha,
                "firstreward_yield": v[dskew, alpha],
                "firstprice_yield": v[dskew],
                "improvement_pct": improvement_percent(v[dskew, alpha], v[dskew]),
            }
            for dskew in decay_skews
            for alpha in alphas
        ]

    result.rows, result.seed_rows = sweep(cells, rows, seeds, workers)
    return result


def run_fig4(
    n_jobs: int = 5000,
    seeds: Sequence[int] = (0, 1, 2),
    alphas: Sequence[float] = ALPHAS,
    decay_skews: Sequence[float] = DECAY_SKEWS,
    processors: int = 16,
    workers: Optional[int] = None,
) -> FigureResult:
    """Regenerate Figure 4 (bounded penalties)."""
    return sweep_alpha(
        figure="fig4",
        title="FirstReward improvement over FirstPrice vs alpha (bounded penalties)",
        penalty_bound=0.0,
        n_jobs=n_jobs,
        seeds=seeds,
        alphas=alphas,
        decay_skews=decay_skews,
        processors=processors,
        workers=workers,
    )
