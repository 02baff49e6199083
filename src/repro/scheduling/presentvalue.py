"""The Present Value heuristic (Eq. 3, §5.1).

    PV_i = yield_i / (1 + discount_rate · RPT_i)

"This formula is standard for the present value of an investment
instrument with face value yield_i that matures in time RPT_i ...  higher
discount rates cause the system to discount future gains more
aggressively, making the system more risk-averse."  Tasks are selected in
order of discounted unit gain ``PV_i / RPT_i``; at discount rate 0 this
is exactly FirstPrice.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError
from repro.scheduling.base import (
    PoolColumns,
    SchedulingHeuristic,
    affine_scores,
    current_yields,
    unit_denominator,
)


def present_values(cols: PoolColumns, now: float, discount_rate: float) -> np.ndarray:
    """Vectorized Eq. 3 over a pool."""
    return current_yields(cols, now) / (1.0 + discount_rate * cols.remaining)


class PresentValue(SchedulingHeuristic):
    """Discounted unit gain ``PV_i / RPT_i``.

    Parameters
    ----------
    discount_rate:
        Simple-interest rate per time unit (a *fraction*, not a percent:
        the paper's "1%" is ``0.01``).  Must be ≥ 0; 0 reduces to
        FirstPrice.
    """

    name = "pv"

    def __init__(self, discount_rate: float = 0.01) -> None:
        if not discount_rate >= 0:
            raise SchedulingError(f"discount_rate must be >= 0, got {discount_rate!r}")
        self.discount_rate = float(discount_rate)
        self.affine_key = (1.0, self.discount_rate)

    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        scores = affine_scores(cols, now, self.affine_key)
        if scores is None:
            scores = present_values(cols, now, self.discount_rate) / unit_denominator(cols)
        return scores

    def __repr__(self) -> str:
        return f"<PresentValue r={self.discount_rate:g}>"
