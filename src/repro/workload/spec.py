"""Declarative workload specifications.

A :class:`WorkloadSpec` captures everything §4.1 parameterizes:

* job count, site capacity (processors), and target *load factor*;
* the duration distribution and the inter-arrival distribution family
  (the inter-arrival *mean* is derived from the load factor);
* batch size (the Millennium mixes submit 16 jobs per arrival);
* the bimodal high/low class model for unit value and for decay rate,
  each parameterized by a *skew ratio* (ratio of class means) and the
  high-class fraction (20% in the paper);
* the penalty regime (bounded at some value, or unbounded).

The unit system (documented here because the paper gives only ratios):
time is abstract "units" with mean job runtime ``duration_mean`` (default
100); currency is abstract with the low class earning a mean *unit value*
(value per unit of runtime) of ``value.low_mean`` (default 1.0), so an
average low-class job is worth ≈ ``duration_mean``.  Decay rates are
currency per time unit; the default low-class mean decay makes an average
job lose its full value after ``DEFAULT_DECAY_HORIZON`` mean runtimes of
delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workload.distributions import (
    Distribution,
    ExponentialDist,
    make_distribution,
)

#: Delay, in multiples of the mean runtime, after which an average
#: low-class job's value reaches zero under the default decay mean.
DEFAULT_DECAY_HORIZON = 4.0

#: Default mean job runtime (abstract time units).
DEFAULT_DURATION_MEAN = 100.0

#: Default site width (nodes); the Millennium cluster scale.
DEFAULT_PROCESSORS = 16


@dataclass(frozen=True)
class BimodalSpec:
    """The paper's bimodal high/low class model (§4.1).

    "The value assignments are normally distributed within high and low
    classes: 20% of jobs have a high value/runtime and 80% have a low
    value/runtime.  The ratio of the means for high-value and low-value
    job classes is the value skew ratio."  The same construction is used
    for decay rates with a *decay skew ratio*.

    Attributes
    ----------
    low_mean:
        Mean of the low class.
    skew:
        Ratio of high-class mean to low-class mean (skew 1 collapses to a
        single class).
    high_fraction:
        Probability a job is in the high class (paper: 0.2).
    cv:
        Within-class coefficient of variation of the truncated normal
        (0 makes classes degenerate).
    """

    low_mean: float
    skew: float = 1.0
    high_fraction: float = 0.2
    cv: float = 0.2

    def __post_init__(self) -> None:
        if not math.isfinite(self.low_mean) or self.low_mean <= 0:
            raise WorkloadError(f"low_mean must be finite and > 0, got {self.low_mean!r}")
        if not math.isfinite(self.skew) or self.skew < 1:
            raise WorkloadError(
                f"skew must be >= 1 (high mean / low mean), got {self.skew!r}"
            )
        if not 0.0 <= self.high_fraction <= 1.0:
            raise WorkloadError(f"high_fraction must be in [0, 1], got {self.high_fraction!r}")
        if not math.isfinite(self.cv) or self.cv < 0:
            raise WorkloadError(f"cv must be finite and >= 0, got {self.cv!r}")

    @property
    def high_mean(self) -> float:
        return self.low_mean * self.skew

    @property
    def mixture_mean(self) -> float:
        return (1 - self.high_fraction) * self.low_mean + self.high_fraction * self.high_mean

    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample *size* values; returns ``(values, is_high)`` arrays."""
        if size < 0:
            raise WorkloadError(f"sample size must be >= 0, got {size}")
        is_high = rng.random(size) < self.high_fraction
        means = np.where(is_high, self.high_mean, self.low_mean)
        if self.cv == 0:
            return means.astype(float), is_high
        values = rng.normal(means, self.cv * means)
        bad = values <= 0
        while bad.any():
            redraw_means = means[bad]
            values[bad] = rng.normal(redraw_means, self.cv * redraw_means)
            bad = values <= 0
        return values, is_high


def default_decay_spec(
    value_low_mean: float = 1.0,
    skew: float = 1.0,
    horizon: float = DEFAULT_DECAY_HORIZON,
    duration_mean: float = DEFAULT_DURATION_MEAN,
    high_fraction: float = 0.2,
    cv: float = 0.2,
) -> BimodalSpec:
    """Decay-rate class model with a documented physical meaning.

    The low-class mean decay is chosen so an average low-class job
    (value ≈ ``value_low_mean · duration_mean``) loses its entire value
    after ``horizon`` mean runtimes of delay.
    """
    if horizon <= 0:
        raise WorkloadError(f"horizon must be > 0, got {horizon!r}")
    low_mean = value_low_mean / horizon
    return BimodalSpec(low_mean=low_mean, skew=skew, high_fraction=high_fraction, cv=cv)


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete description of one synthetic task mix."""

    n_jobs: int = 5000
    processors: int = DEFAULT_PROCESSORS
    load_factor: float = 1.0
    duration: Distribution = field(default_factory=lambda: ExponentialDist(DEFAULT_DURATION_MEAN))
    interarrival_kind: str = "exponential"
    interarrival_cv: float = 0.25  # used only by the "normal" family
    batch_size: int = 1
    value: BimodalSpec = field(default_factory=lambda: BimodalSpec(low_mean=1.0))
    decay: BimodalSpec = field(default_factory=default_decay_spec)
    penalty_bound: Optional[float] = None  # None = unbounded penalties
    #: coefficient of variation of multiplicative noise on declared
    #: runtime estimates (0 = the paper's accurate-prediction assumption;
    #: the misestimation extension sets this > 0)
    estimate_error_cv: float = 0.0
    name: str = "workload"

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise WorkloadError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.processors < 1:
            raise WorkloadError(f"processors must be >= 1, got {self.processors}")
        if not math.isfinite(self.load_factor) or self.load_factor <= 0:
            raise WorkloadError(f"load_factor must be > 0, got {self.load_factor!r}")
        if self.batch_size < 1:
            raise WorkloadError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.penalty_bound is not None and self.penalty_bound < 0:
            raise WorkloadError(
                f"penalty_bound must be >= 0 or None, got {self.penalty_bound!r}"
            )
        if not math.isfinite(self.estimate_error_cv) or self.estimate_error_cv < 0:
            raise WorkloadError(
                f"estimate_error_cv must be finite and >= 0, got {self.estimate_error_cv!r}"
            )

    # ------------------------------------------------------------------
    @property
    def interarrival_mean(self) -> float:
        """Mean time between batch arrivals that realizes the load factor.

        Work arrives at rate ``batch_size · duration_mean / gap_mean``
        and the site completes work at rate ``processors``; equating
        their ratio to the load factor gives the gap mean.
        """
        return self.batch_size * self.duration.mean / (self.processors * self.load_factor)

    def interarrival_distribution(self) -> Distribution:
        mean = self.interarrival_mean
        if self.interarrival_kind == "normal":
            return make_distribution("normal", mean, cv=self.interarrival_cv)
        return make_distribution(self.interarrival_kind, mean)

    @property
    def bound_or_inf(self) -> float:
        return math.inf if self.penalty_bound is None else self.penalty_bound

    def describe(self) -> str:
        """One-line summary used by the CLI and experiment logs."""
        bound = "unbounded" if self.penalty_bound is None else f"bound={self.penalty_bound:g}"
        return (
            f"{self.name}: n={self.n_jobs} procs={self.processors} "
            f"load={self.load_factor:g} dur={self.duration!r} "
            f"arrivals={self.interarrival_kind}(batch={self.batch_size}) "
            f"vskew={self.value.skew:g} dskew={self.decay.skew:g} {bound}"
        )
