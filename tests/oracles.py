"""Slow reference implementations the tests hold the engine against.

Nothing outside ``tests/`` calls these: each is the plainest statement
of a quantity the engine computes a faster way.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.errors import SchedulingError


def opportunity_costs_naive(
    remaining: np.ndarray,
    decay: np.ndarray,
    horizons: np.ndarray,
) -> np.ndarray:
    """Eq. 4 over all (i, j) pairs, O(n²): the oracle of
    :func:`repro.scheduling.cost.opportunity_costs`."""
    remaining = np.asarray(remaining, dtype=float)
    decay = np.asarray(decay, dtype=float)
    horizons = np.asarray(horizons, dtype=float)
    n = len(remaining)
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j == i:
                continue
            total += decay[j] * min(remaining[i], horizons[j])
        out[i] = total
    return out


def project_start_times(
    remaining_in_order: Sequence[float],
    free_times: Sequence[float],
) -> np.ndarray:
    """Expected start times for tasks dispatched in the given order.

    List scheduling over the whole candidate schedule: each successive
    task (RPTs in dispatch order, highest priority first) goes to the
    earliest-free processor (*free_times*: one entry per processor).
    :func:`repro.scheduling.candidate.project_next_start` is bit-identical
    to one entry of this.
    """
    if len(free_times) == 0:
        raise SchedulingError("project_start_times requires at least one processor")
    heap = [float(t) for t in free_times]
    heapq.heapify(heap)
    starts = np.empty(len(remaining_in_order))
    for pos, rpt in enumerate(remaining_in_order):
        if rpt < 0:
            raise SchedulingError(f"negative RPT {rpt!r} at position {pos}")
        t = heapq.heappop(heap)
        starts[pos] = t
        heapq.heappush(heap, t + float(rpt))
    return starts
