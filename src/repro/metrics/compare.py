"""Improvement metrics.

Every evaluation figure in the paper plots *percent improvement over a
baseline* (FirstPrice for Figs 3–5, no-admission-control for Fig 7).
"""

from __future__ import annotations

import math


def improvement_percent(value: float, baseline: float) -> float:
    """Percent improvement of *value* over *baseline*.

    Defined as ``100 · (value − baseline) / |baseline|`` so the sign is
    meaningful when the baseline is negative (unbounded-penalty overload
    drives baseline yields below zero): positive always means "earned
    more than the baseline".

    A zero baseline returns ``inf``/``-inf``/0 by the sign of the
    difference, and that ±inf lands in the experiment's row as is —
    callers plotting such series should prefer absolute yields.
    """
    diff = value - baseline
    if baseline == 0.0:
        if diff == 0.0:
            return 0.0
        return math.inf if diff > 0 else -math.inf
    return 100.0 * diff / abs(baseline)
