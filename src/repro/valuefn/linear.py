"""Linear-decay value functions (Fig. 2 / Eq. 1 of the paper).

A task earns ``value`` if it completes with no delay; its yield then
decays at constant rate ``decay`` per unit of delay:

    yield(delay) = value − delay · decay                           (Eq. 1)

optionally floored at ``−penalty_bound`` (the *bounded penalty* case; the
Millennium systems bound penalties at zero, i.e. ``penalty_bound = 0``).
With no bound the yield decreases without limit (*unbounded penalties*),
the regime of the paper's Figures 5–7.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.domain import MAX_MAGNITUDE
from repro.errors import ValueFunctionError
from repro.valuefn.base import ValueFunction


class LinearDecayValueFunction(ValueFunction):
    """The paper's value-function model.

    Parameters
    ----------
    value:
        Maximum value, earned at zero delay.  Any sign (though the
        paper's workloads use positive values).
    decay:
        Decay rate ``d_i`` ≥ 0 (value lost per unit of delay).
    penalty_bound:
        ``None`` for unbounded penalties; otherwise the largest penalty
        the user will levy — the yield is floored at ``−penalty_bound``.
        ``0`` reproduces Millennium ("value functions are bounded at
        zero").  Must be ≥ ``−value`` so the floor is not above the
        maximum value.

    Each magnitude is at most :data:`~repro.domain.MAX_MAGNITUDE`.

    Example
    -------
    >>> vf = LinearDecayValueFunction(value=100.0, decay=2.0, penalty_bound=20.0)
    >>> vf.yield_at(0.0)
    100.0
    >>> vf.yield_at(30.0)
    40.0
    >>> vf.yield_at(100.0)   # floored at -20
    -20.0
    >>> vf.expiration_delay
    60.0
    """

    __slots__ = ("value", "decay", "penalty_bound")

    def __init__(self, value: float, decay: float, penalty_bound: Optional[float] = None) -> None:
        if not -MAX_MAGNITUDE <= value <= MAX_MAGNITUDE:
            raise ValueFunctionError(f"value must be within ±{MAX_MAGNITUDE:g}, got {value!r}")
        if not 0 <= decay <= MAX_MAGNITUDE:
            raise ValueFunctionError(f"decay must be in [0, {MAX_MAGNITUDE:g}], got {decay!r}")
        if penalty_bound is not None:
            if not -MAX_MAGNITUDE <= penalty_bound <= MAX_MAGNITUDE:
                raise ValueFunctionError(
                    f"penalty_bound must be within ±{MAX_MAGNITUDE:g}, got {penalty_bound!r}"
                )
            if penalty_bound < -value:
                raise ValueFunctionError(
                    f"penalty_bound {penalty_bound!r} puts the floor above the "
                    f"maximum value {value!r}"
                )
        self.value = float(value)
        self.decay = float(decay)
        self.penalty_bound = None if penalty_bound is None else float(penalty_bound)

    # ------------------------------------------------------------------
    @property
    def bounded(self) -> bool:
        return self.penalty_bound is not None

    @property
    def max_value(self) -> float:
        return self.value

    @property
    def expiration_delay(self) -> float:
        if self.penalty_bound is None:
            return math.inf
        if self.decay == 0.0:
            return 0.0  # never decays: already "expired" at any delay
        return (self.value + self.penalty_bound) / self.decay

    def yield_at(self, delay: float) -> float:
        if delay < 0:
            raise ValueFunctionError(f"delay must be >= 0, got {delay!r}")
        raw = self.value - delay * self.decay
        if self.penalty_bound is None:
            return raw
        return max(raw, -self.penalty_bound)

    def decay_at(self, delay: float) -> float:
        if delay < 0:
            raise ValueFunctionError(f"delay must be >= 0, got {delay!r}")
        return 0.0 if self.is_expired(delay) and self.decay > 0 else self.decay

    # ------------------------------------------------------------------
    def as_tuple(self) -> tuple[float, float, Optional[float]]:
        """The (value, decay, bound) triple used in bids (§6)."""
        return (self.value, self.decay, self.penalty_bound)

    def bound_or_inf(self) -> float:
        """Penalty bound as a float suitable for vectorized kernels."""
        return math.inf if self.penalty_bound is None else self.penalty_bound

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearDecayValueFunction):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        bound = "unbounded" if self.penalty_bound is None else f"bound={self.penalty_bound:g}"
        return f"LinearDecayValueFunction(value={self.value:g}, decay={self.decay:g}, {bound})"
