"""Replication statistics: means and normal-approximation confidence intervals.

The experiment harness averages each point over several seeds; the
replication harness reports the spread so EXPERIMENTS.md can quote
uncertainty.
(Implemented directly on NumPy — SciPy is available in dev environments
but not a runtime dependency.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: two-sided 95% normal quantile
_Z95 = 1.959963984540054


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
    """Mean with a 95% normal-approximation CI on the mean."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("mean_and_ci requires at least one value")
    mean = float(arr.mean())
    if arr.size == 1:
        return SeriesStats(mean=mean, std=0.0, ci_half_width=0.0, n=1)
    std = float(arr.std(ddof=1))
    half = _Z95 * std / math.sqrt(arr.size)
    return SeriesStats(mean=mean, std=std, ci_half_width=half, n=int(arr.size))

