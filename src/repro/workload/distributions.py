"""The two distributions §4.1 names: exponential and normal.

Each knows its configured mean (load-factor calibration derives the
inter-arrival mean from the duration mean) and samples a vector given a
``numpy.random.Generator``.

Positive-support distributions (durations, inter-arrival gaps) clip away
non-positive samples by resampling, so a ``NormalDist`` with a small mean
never emits zero-length jobs.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import WorkloadError


class Distribution(abc.ABC):
    """A one-dimensional sampling distribution with a known mean."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw *size* samples as a float64 array."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """The distribution's configured mean."""

    def _check_size(self, size: int) -> None:
        if size < 0:
            raise WorkloadError(f"sample size must be >= 0, got {size}")


def _resample_nonpositive(
    rng: np.random.Generator,
    draw,
    size: int,
    floor: float,
    max_rounds: int = 100,
) -> np.ndarray:
    """Draw with rejection of samples <= floor (vectorized resampling)."""
    out = draw(size)
    bad = out <= floor
    rounds = 0
    while bad.any():
        rounds += 1
        if rounds > max_rounds:
            raise WorkloadError(
                "resampling failed to produce positive samples; the "
                "distribution places almost no mass above zero"
            )
        out[bad] = draw(int(bad.sum()))
        bad = out <= floor
    return out


class ExponentialDist(Distribution):
    """Exponential distribution — the paper's default for inter-arrivals
    and durations ("exponentially distributed inter-arrival times are
    common in batch workloads")."""

    def __init__(self, mean: float) -> None:
        if not math.isfinite(mean) or mean <= 0:
            raise WorkloadError(f"exponential mean must be finite and > 0, got {mean!r}")
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self._check_size(size)
        return rng.exponential(self._mean, size)

    def __repr__(self) -> str:
        return f"ExponentialDist(mean={self._mean:g})"


class NormalDist(Distribution):
    """Truncated-positive normal — used by the Millennium-style mixes
    ("in some cases we use normal distributions to reproduce and compare
    to results from the Millennium study").

    ``cv`` is the coefficient of variation (std/mean); samples ≤ 0 are
    rejected and redrawn, so the realized mean is slightly above the
    nominal one for large ``cv`` (negligible for cv ≤ 0.5).
    """

    def __init__(self, mean: float, cv: float = 0.25) -> None:
        if not math.isfinite(mean) or mean <= 0:
            raise WorkloadError(f"normal mean must be finite and > 0, got {mean!r}")
        if not math.isfinite(cv) or cv < 0:
            raise WorkloadError(f"cv must be finite and >= 0, got {cv!r}")
        self._mean = float(mean)
        self.cv = float(cv)

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        self._check_size(size)
        if self.cv == 0:
            return np.full(size, self._mean)
        std = self.cv * self._mean
        return _resample_nonpositive(
            rng, lambda n: rng.normal(self._mean, std, n), size, floor=0.0
        )

    def __repr__(self) -> str:
        return f"NormalDist(mean={self._mean:g}, cv={self.cv:g})"


def make_distribution(kind: str, mean: float, **kwargs) -> Distribution:
    """Factory by name: exponential | normal."""
    kinds = {"exponential": ExponentialDist, "normal": NormalDist}
    try:
        cls = kinds[kind]
    except KeyError:
        raise WorkloadError(
            f"unknown distribution kind {kind!r}; options: {sorted(kinds)}"
        ) from None
    return cls(mean, **kwargs)
