"""Estimators shared by the run protocol and ``compare``.

All of them take plain lists of floats so the self-tests can pin their
arithmetic on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (*q* in 0..100) of *values*.

    Matches ``numpy.percentile``'s default so numbers agree with ad-hoc
    analysis; implemented here so ``compare`` needs no numpy.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank must be within 0..100, got {q!r}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def unit_medians(rounds: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Per-unit median across rounds.

    *rounds* is one mapping ``unit -> wall seconds`` per round; every
    round must have timed the same units (they are interleaved, so a
    slow stretch of the host lands on a minority of each unit's samples
    rather than on all samples of one unit).
    """
    if not rounds:
        raise ValueError("no rounds were timed")
    units = list(rounds[0])
    for index, row in enumerate(rounds):
        if list(row) != units:
            raise ValueError(f"round {index} timed units {list(row)}, expected {units}")
    return {unit: median([row[unit] for row in rounds]) for unit in units}


def sum_of_medians(rounds: Sequence[Mapping[str, float]], units: Sequence[str]) -> float:
    """Σ over *units* of that unit's median wall across rounds."""
    medians = unit_medians(rounds)
    return sum(medians[unit] for unit in units)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) ÷ |median| with ``statistics.quantiles(values, n=4)``.

    The run-to-run spread the referee uses; 0.0 for fewer than two
    values (nothing to spread) and ``inf`` for a zero median.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return math.inf
    return (q3 - q1) / abs(mid)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
