"""Figure 3 — Present Value vs FirstPrice across discount rates.

Paper: "Yield improvement for Present Value (PV) relative to FirstPrice
for variants of a task mix used in the Millennium study, with load
factor 1.  At discount rate 0 PV is equivalent to FirstPrice.  Yield
improves for modest increases in the discount rate along the x-axis.
The improvement is larger for workloads with a higher variance in task
value."

Configuration (calibration documented in DESIGN.md / EXPERIMENTS.md):
Millennium mix — normally distributed durations and session gaps, 256-job
burst sessions at load factor 1, uniform decay (horizon 2 mean runtimes),
penalties bounded at zero, preemption enabled.  The x-axis is the
discount rate **in percent** (the paper's axis); the PV heuristic takes
the fraction.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.experiments.common import FigureResult
from repro.experiments.parallel import run_site_cell, sweep
from repro.metrics.compare import improvement_percent
from repro.workload.millennium import millennium_spec

DISCOUNT_PERCENTS = (0.001, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0)
VALUE_SKEWS = (1.0, 1.5, 2.15, 4.0, 9.0)
SESSION_SIZE = 256
DURATION_CV = 0.5
DECAY_HORIZON = 2.0


def fig3_spec(value_skew: float, n_jobs: int = 5000, processors: int = 16):
    return millennium_spec(
        n_jobs=n_jobs,
        value_skew=value_skew,
        processors=processors,
        duration_cv=DURATION_CV,
        decay_horizon=DECAY_HORIZON,
        batch_size=SESSION_SIZE,
        penalty_bound=0.0,
    )


def run_fig3(
    n_jobs: int = 5000,
    seeds: Sequence[int] = (0, 1),
    discount_percents: Sequence[float] = DISCOUNT_PERCENTS,
    value_skews: Sequence[float] = VALUE_SKEWS,
    processors: int = 16,
    workers: Optional[int] = None,
) -> FigureResult:
    """Regenerate Figure 3's series.

    Rows: one per (value_skew, discount_pct) with the PV yield, the
    FirstPrice baseline yield, and the percent improvement.  Cells fan
    out over *workers* processes; the rows are identical at any count.
    """
    result = FigureResult(
        figure="fig3",
        title="PV yield improvement over FirstPrice vs discount rate (%)",
        notes=[
            f"millennium burst mix: sessions of {SESSION_SIZE}, load 1, "
            f"bounded at 0, preemption on, n={n_jobs}, seeds={list(seeds)}",
            "x-axis is the discount rate in percent, as in the paper",
        ],
    )
    cells = {}
    for skew in value_skews:
        spec = fig3_spec(skew, n_jobs=n_jobs, processors=processors)
        cells[skew] = partial(run_site_cell, spec, ("firstprice", {}), preemption=True)
        for pct in discount_percents:
            cells[skew, pct] = partial(
                run_site_cell,
                spec,
                ("pv", {"discount_rate": pct / 100.0}),
                preemption=True,
            )

    def rows(v: dict) -> list[dict]:
        return [
            {
                "value_skew": skew,
                "discount_pct": pct,
                "pv_yield": v[skew, pct],
                "firstprice_yield": v[skew],
                "improvement_pct": improvement_percent(v[skew, pct], v[skew]),
            }
            for skew in value_skews
            for pct in discount_percents
        ]

    result.rows, result.seed_rows = sweep(cells, rows, seeds, workers)
    return result
