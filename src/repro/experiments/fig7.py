"""Figure 7 — the slack-threshold sweep.

Paper: "The admission control (slack) threshold has a peak that balances
risk and reward for a given load factor.  It is more important to set
the slack threshold correctly at higher load levels." Loads {2, 1.33,
0.89, 0.67, 0.50}; thresholds −200…700; y-axis is percent improvement
over no admission control.

Both arms (with and without admission control) use FirstReward(α=0) so
the sweep isolates the admission policy itself.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.experiments.common import FigureResult
from repro.experiments.fig6 import DISCOUNT_RATE, fig67_spec
from repro.experiments.parallel import run_site_cell, sweep
from repro.metrics.compare import improvement_percent

LOAD_FACTORS = (0.5, 0.67, 0.89, 1.33, 2.0)
THRESHOLDS = (-200.0, -100.0, 0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0)
ALPHA = 0.0


def run_fig7(
    n_jobs: int = 5000,
    seeds: Sequence[int] = (0, 1),
    load_factors: Sequence[float] = LOAD_FACTORS,
    thresholds: Sequence[float] = THRESHOLDS,
    processors: int = 16,
    workers: Optional[int] = None,
) -> FigureResult:
    """Regenerate Figure 7's series.

    Rows: one per (load_factor, threshold) with the admission-controlled
    yield rate, the no-admission baseline, and percent improvement.
    """
    result = FigureResult(
        figure="fig7",
        title="Improvement over no admission control vs slack threshold",
        notes=[
            f"economy mix as Fig 6; both arms FirstReward(alpha={ALPHA:g}); "
            f"n={n_jobs}, seeds={list(seeds)}",
            "at loads > 1 the no-AC baseline yield rate is negative (unbounded "
            "penalties); improvement is relative to |baseline|",
        ],
    )
    heuristic = ("firstreward", {"alpha": ALPHA, "discount_rate": DISCOUNT_RATE})
    cells = {}
    for load in load_factors:
        spec = fig67_spec(load, n_jobs=n_jobs, processors=processors)
        cells[load] = partial(run_site_cell, spec, heuristic, metric="yield_rate")
        for threshold in thresholds:
            cells[load, threshold] = partial(
                run_site_cell,
                spec,
                heuristic,
                metric="yield_rate",
                admission=(
                    "slack",
                    {"threshold": threshold, "discount_rate": DISCOUNT_RATE},
                ),
            )

    def rows(v: dict) -> list[dict]:
        return [
            {
                "load_factor": load,
                "threshold": threshold,
                "yield_rate": v[load, threshold],
                "noac_yield_rate": v[load],
                "improvement_pct": improvement_percent(v[load, threshold], v[load]),
            }
            for load in load_factors
            for threshold in thresholds
        ]

    result.rows, result.seed_rows = sweep(cells, rows, seeds, workers)
    return result
