"""Millennium's FirstPrice heuristic (§4).

"The Millennium FirstPrice heuristic prioritizes tasks greedily according
to the expected yield per unit of resource per unit of processing time
(yield_i / RPT_i).  We refer to this value as unit gain."

FirstPrice is the paper's comparison baseline for every figure.
"""

from __future__ import annotations

import numpy as np

from repro.scheduling.base import (
    PoolColumns,
    SchedulingHeuristic,
    affine_scores,
    current_yields,
    unit_denominator,
)


class FirstPrice(SchedulingHeuristic):
    """Greedy unit gain: ``yield_i(now) / RPT_i``."""

    name = "firstprice"
    affine_key = (1.0, 0.0)

    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        scores = affine_scores(cols, now, self.affine_key)
        if scores is None:
            scores = current_yields(cols, now) / unit_denominator(cols)
        return scores
