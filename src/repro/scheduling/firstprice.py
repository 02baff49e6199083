"""Millennium's FirstPrice heuristic (§4).

"The Millennium FirstPrice heuristic prioritizes tasks greedily according
to the expected yield per unit of resource per unit of processing time
(yield_i / RPT_i).  We refer to this value as unit gain."

FirstPrice is the paper's comparison baseline for every figure.  It is
FirstReward at ``α = 1`` and discount rate 0, and scores as such
(:class:`~repro.scheduling.base.RewardHeuristic` at ``(1, 0)``).
"""

from __future__ import annotations

from repro.scheduling.base import RewardHeuristic


class FirstPrice(RewardHeuristic):
    """Greedy unit gain: ``yield_i(now) / RPT_i``."""

    name = "firstprice"
    affine_key = (1.0, 0.0)

