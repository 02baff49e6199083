"""Piecewise-linear (variable-rate) value functions.

The paper (§3): "The framework can generalize to value functions that
decay at variable rates, but these complicate the problem significantly."
This module implements that generalization as the documented extension: a
value function specified by breakpoints ``(delay, yield)`` with linear
interpolation between them and a constant tail after the last breakpoint.

These are accepted by the generic (non-vectorized) scheduler path and by
the market layer; the vectorized site engine requires linear functions,
matching the paper's evaluation.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import ValueFunctionError
from repro.valuefn.base import ValueFunction
from repro.valuefn.linear import LinearDecayValueFunction


class PiecewiseLinearValueFunction(ValueFunction):
    """Value function defined by ``(delay, yield)`` breakpoints.

    Parameters
    ----------
    points:
        Sequence of ``(delay, yield)`` pairs.  Delays must be strictly
        increasing and start at 0; yields must be non-increasing
        (value functions never rise with delay).  After the final
        breakpoint the yield stays constant (the function has expired).

    Example
    -------
    A task worth 100 that keeps full value for a 10-unit grace period,
    then decays steeply to zero at delay 30, with penalty capped at −50
    from delay 80 on:

    >>> vf = PiecewiseLinearValueFunction([(0, 100), (10, 100), (30, 0), (80, -50)])
    >>> vf.yield_at(5.0)
    100.0
    >>> vf.yield_at(20.0)
    50.0
    >>> vf.yield_at(1000.0)
    -50.0
    >>> vf.decay_at(20.0)
    5.0
    """

    __slots__ = ("_delays", "_yields")

    def __init__(self, points: Iterable[tuple[float, float]]) -> None:
        pts = [(float(d), float(y)) for d, y in points]
        if len(pts) < 1:
            raise ValueFunctionError("need at least one breakpoint")
        delays = [p[0] for p in pts]
        yields = [p[1] for p in pts]
        if delays[0] != 0.0:
            raise ValueFunctionError(f"first breakpoint must be at delay 0, got {delays[0]!r}")
        for a, b in zip(delays, delays[1:]):
            if not b > a:
                raise ValueFunctionError(f"delays must be strictly increasing ({a!r} -> {b!r})")
        for a, b in zip(yields, yields[1:]):
            if b > a:
                raise ValueFunctionError(f"yields must be non-increasing ({a!r} -> {b!r})")
        if any(not math.isfinite(v) for v in delays + yields):
            raise ValueFunctionError("breakpoints must be finite")
        self._delays = delays
        self._yields = yields

    # ------------------------------------------------------------------
    @property
    def max_value(self) -> float:
        return self._yields[0]

    @property
    def expiration_delay(self) -> float:
        # decay stops at the last breakpoint (constant tail)
        return self._delays[-1]

    def _segment(self, delay: float) -> int:
        """Index i such that delay lies in [delays[i], delays[i+1])."""
        lo, hi = 0, len(self._delays) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._delays[mid] <= delay:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def yield_at(self, delay: float) -> float:
        if delay < 0:
            raise ValueFunctionError(f"delay must be >= 0, got {delay!r}")
        if delay >= self._delays[-1]:
            return self._yields[-1]
        i = self._segment(delay)
        d0, d1 = self._delays[i], self._delays[i + 1]
        y0, y1 = self._yields[i], self._yields[i + 1]
        frac = (delay - d0) / (d1 - d0)
        return y0 + frac * (y1 - y0)

    def decay_at(self, delay: float) -> float:
        if delay < 0:
            raise ValueFunctionError(f"delay must be >= 0, got {delay!r}")
        if delay >= self._delays[-1]:
            return 0.0
        i = self._segment(delay)
        d0, d1 = self._delays[i], self._delays[i + 1]
        y0, y1 = self._yields[i], self._yields[i + 1]
        return (y0 - y1) / (d1 - d0)

    # ------------------------------------------------------------------
    @classmethod
    def from_linear(
        cls, linear: LinearDecayValueFunction, horizon: float = 1e6
    ) -> "PiecewiseLinearValueFunction":
        """Embed a linear value function (unbounded tails truncated at *horizon*)."""
        exp = linear.expiration_delay
        if linear.penalty_bound is not None and linear.decay > 0 and math.isfinite(exp):
            return cls([(0.0, linear.value), (exp, -linear.penalty_bound)])
        if linear.decay == 0:
            return cls([(0.0, linear.value)])
        return cls([(0.0, linear.value), (horizon, linear.value - horizon * linear.decay)])

    @property
    def breakpoints(self) -> Sequence[tuple[float, float]]:
        return list(zip(self._delays, self._yields))

    def __repr__(self) -> str:
        return f"PiecewiseLinearValueFunction({self.breakpoints!r})"
