"""Failure-aware risk pricing: survival-discounted candidate scores.

A candidate's expected yield is only earned if the node it occupies
stays up for the task's remaining processing time.  With a survival
model ``S(t)`` (see :mod:`repro.faults.survival`), the failure-aware
expected reward of dispatching task *i* is

    E[reward_i] ≈ S(RPT_i) · reward_i

:class:`SurvivalDiscount` wraps any base heuristic and applies exactly
that discount to its scores.  Only *positive* scores are discounted:
a positive score is a claim on future reward (which a crash forfeits),
while a negative score is already a cost/penalty statement — shrinking
it toward zero would perversely *promote* risky long tasks.

The wrapper preserves the base heuristic's ordering exactly when the
survival model reports no risk (``mttf=inf`` gives S ≡ 1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError
from repro.scheduling.base import PoolColumns, SchedulingHeuristic


class SurvivalDiscount(SchedulingHeuristic):
    """Weigh a base heuristic's scores by P(node survives the RPT).

    Parameters
    ----------
    inner:
        The base heuristic whose ordering is being risk-adjusted.
    survival:
        Any object with a vectorized ``p_survive(horizons) -> probs``
        method, e.g. :class:`repro.faults.survival.ExponentialSurvival`.
    """

    name = "survival"

    def __init__(self, inner: SchedulingHeuristic, survival) -> None:
        if not hasattr(survival, "p_survive"):
            raise SchedulingError(
                f"survival model {survival!r} lacks a p_survive method"
            )
        self.inner = inner
        self.survival = survival

    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        base = self.inner.scores(cols, now)
        if len(base) == 0:
            return base
        p = self.survival.p_survive(cols.remaining)
        return np.where(base > 0.0, base * p, base)

    def __repr__(self) -> str:
        return f"<SurvivalDiscount {self.inner!r} via {self.survival!r}>"
