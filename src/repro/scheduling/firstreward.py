"""The FirstReward heuristic (Eq. 6, §5.3) — the paper's contribution.

    reward_i = (α · PV_i − (1 − α) · cost_i) / RPT_i

``PV_i`` discounts the task's expected gain (Eq. 3) and ``cost_i`` is the
opportunity cost of occupying a node for ``RPT_i`` while competitors
decay (Eq. 4).  The α knob trades reward (α → 1) against risk (α → 0):

* α = 1, discount 0   →  exactly FirstPrice.
* α = 1, discount > 0 →  the PV heuristic.
* α = 0               →  pure cost minimization; with unbounded
  penalties the per-unit cost is ``Σ_j d_j − d_i`` (Eq. 5), so ordering
  collapses to highest-decay-first — what the paper calls "a variant of
  SWPT".  (True SWPT ``d_i/RPT_i`` is available separately as a
  baseline; the distinction is documented in DESIGN.md.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError
from repro.scheduling.base import (
    PoolColumns,
    SchedulingHeuristic,
    affine_scores,
    decay_horizons,
    effective_decay,
    unit_denominator,
)
from repro.scheduling.cost import opportunity_costs, saturating_costs
from repro.scheduling.presentvalue import present_values


class FirstReward(SchedulingHeuristic):
    """Risk/reward blend of discounted gain and opportunity cost.

    Parameters
    ----------
    alpha:
        Weight on gains in [0, 1]; ``1 − alpha`` weighs opportunity cost.
        "Other experiments have shown that generally the ideal is
        α < 0.5" (§5.3).
    discount_rate:
        Present-value discount rate (fraction per time unit).
    """

    name = "firstreward"

    def __init__(self, alpha: float = 0.3, discount_rate: float = 0.01) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise SchedulingError(f"alpha must be in [0, 1], got {alpha!r}")
        if not discount_rate >= 0:
            raise SchedulingError(f"discount_rate must be >= 0, got {discount_rate!r}")
        self.alpha = float(alpha)
        self.discount_rate = float(discount_rate)

    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        scores = affine_scores(cols, now, self.alpha, self.discount_rate)
        if scores is not None:
            return scores
        pv = present_values(cols, now, self.discount_rate)
        denom = unit_denominator(cols)
        if self.alpha == 1.0:
            return pv / denom
        d_eff = effective_decay(cols, now)
        if cols.expiring == len(cols) and cols.from_pool:
            # every horizon finite, the inputs non-negative by
            # construction: Eq. 4 over the competitors that still decay
            live = np.flatnonzero(d_eff)
            if not len(live):
                # every cost is +0.0, and x − (1 − α)·0.0 is x
                return self.alpha * pv / denom
            cost = saturating_costs(cols.remaining, d_eff, decay_horizons(cols, now), live)
        else:
            # Eq. 4; on a view that never expires (one the pool's rows do
            # not serve) every horizon is inf and this is Eq. 5's closed form
            cost = opportunity_costs(cols.remaining, d_eff, decay_horizons(cols, now))
        return (self.alpha * pv - (1.0 - self.alpha) * cost) / denom

    def __repr__(self) -> str:
        return f"<FirstReward alpha={self.alpha:g} r={self.discount_rate:g}>"
