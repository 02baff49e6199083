"""The survival model: P(a node stays up for the next *t* time units).

:class:`repro.scheduling.survival.SurvivalDiscount` weighs a candidate's
expected yield by the probability that the node it would occupy survives
the task's remaining processing time.  ``p_survive`` is vectorized: it
accepts scalars or NumPy arrays of horizons and returns probabilities of
the same shape.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimulationError


class ExponentialSurvival:
    """Memoryless node lifetime: ``P(survive t) = exp(−t / mttf)``.

    Matches the exponential TTF model of :class:`repro.faults.FaultSpec`;
    memorylessness means the probability is the same regardless of how
    long the node has already been up, so the hook needs no per-node age
    tracking.
    """

    def __init__(self, mttf: float) -> None:
        if not mttf > 0 or math.isnan(mttf):
            raise SimulationError(f"mttf must be > 0, got {mttf!r}")
        self.mttf = float(mttf)

    def p_survive(self, horizon):
        """Survival probability over *horizon* (scalar or array)."""
        h = np.maximum(np.asarray(horizon, dtype=float), 0.0)
        if math.isinf(self.mttf):
            return np.ones_like(h)
        return np.exp(-h / self.mttf)

    def __repr__(self) -> str:
        return f"<ExponentialSurvival mttf={self.mttf:g}>"
