"""Replication statistics: means and Student-t confidence intervals.

The experiment harness averages each point over several seeds; the
replication harness reports the spread so EXPERIMENTS.md can quote
uncertainty.  At the two or three seeds a ``--reps`` run uses, the
normal quantile 1.96 would cover the mean only 70 % (n = 2) or 81 %
(n = 3) of the time; the Student-t quantile covers it 95 % at every n.
(Implemented on the standard library and NumPy — SciPy is available in
dev environments but not a runtime dependency.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _t_within(t: float, df: int) -> float:
    """P(|T| < t) for Student's t at integer *df*, in closed form
    (Abramowitz & Stegun 26.7.3–26.7.4)."""
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    term = total = 1.0
    if df % 2:
        if df == 1:
            return 2.0 * theta / math.pi
        for k in range(1, (df - 1) // 2):
            term *= c2 * (2 * k) / (2 * k + 1)
            total += term
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    for k in range(1, df // 2):
        term *= c2 * (2 * k - 1) / (2 * k)
        total += term
    return math.sin(theta) * total


def _t_density(t: float, df: int) -> float:
    return math.exp(
        math.lgamma((df + 1) / 2)
        - math.lgamma(df / 2)
        - 0.5 * math.log(df * math.pi)
        - (df + 1) / 2 * math.log1p(t * t / df)
    )


def t_quantile_975(df: int) -> float:
    """The Student-t 0.975 quantile at *df* degrees of freedom.

    Newton's method on the closed-form two-sided probability from the
    normal quantile, which lies below the root: the probability is
    concave in t > 0, so every step stays below the root and approaches
    it quadratically, and a step under 1e-12 of t leaves an error far
    below rounding.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    t = 1.959963984540054
    for _ in range(100):
        step = (0.95 - _t_within(t, df)) / (2.0 * _t_density(t, df))
        t += step
        if abs(step) <= 1e-12 * t:
            break
    return t


@dataclass(frozen=True)
class SeriesStats:
    """Mean and spread of one experiment point across replications."""

    mean: float
    std: float
    ci_half_width: float
    n: int

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width

    def __str__(self) -> str:
        if self.n <= 1:
            return f"{self.mean:.4g}"
        return f"{self.mean:.4g} ± {self.ci_half_width:.2g}"


def mean_and_ci(values: Sequence[float]) -> SeriesStats:
    """Mean with a 95% Student-t CI on the mean (n − 1 degrees of freedom)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("mean_and_ci requires at least one value")
    mean = float(arr.mean())
    if arr.size == 1:
        return SeriesStats(mean=mean, std=0.0, ci_half_width=0.0, n=1)
    std = float(arr.std(ddof=1))
    half = t_quantile_975(arr.size - 1) * std / math.sqrt(arr.size)
    return SeriesStats(mean=mean, std=std, ci_half_width=half, n=int(arr.size))

