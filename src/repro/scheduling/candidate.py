"""Candidate-schedule projection (§6).

Given pending tasks in heuristic priority order and the times at which
each of the site's processors next becomes free, project the expected
start time of every pending task under list scheduling: each successive
task goes to the earliest-free processor.  This is the "candidate
schedule" the paper's sites maintain to quote expected completion times
in server bids and to compute admission-control slack.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.errors import SchedulingError


def project_next_start(
    remaining_in_order: Sequence[float],
    free_times: Sequence[float],
    position: int,
) -> float:
    """Projected start time of the entry at *position* alone.

    *remaining_in_order* holds the RPT of each pending task, sorted by
    dispatch priority (highest first); *free_times* has one entry per
    processor, the time it next becomes free (``now`` if idle, the
    running task's believed completion otherwise).  List scheduling:
    each successive task goes to the earliest-free processor.  The result
    is that whole projection's entry at *position* — the same heap walk
    with the same float accumulation order, which a property test holds
    bit for bit against the full projection — but the walk stops once
    the requested slot is reached, and the single-processor case
    collapses to one sequential prefix sum
    (``np.cumsum``; NumPy's ``add.accumulate`` is a left-to-right
    accumulation, unlike ``np.sum``'s pairwise reduction, so the float
    association matches the heap walk exactly).  Admission control only
    consumes the candidate task's own start, so this turns an O(n log P)
    projection per evaluation into O(position).  Admission's shallow
    probe takes the same walk over Python floats
    (:func:`~repro.site.admission._place_shallow`).
    """
    if len(free_times) == 0:
        raise SchedulingError("project_next_start requires at least one processor")
    n = len(remaining_in_order)
    if not 0 <= position < n:
        raise SchedulingError(f"position {position} out of range for {n} tasks")
    remaining = np.asarray(remaining_in_order, dtype=np.float64)
    negative = remaining < 0
    if negative.any():
        pos = int(np.argmax(negative))
        raise _negative_rpt(remaining[pos], pos)
    if position and len(free_times) == 1:
        acc = np.empty(position + 1)
        acc[0] = free_times[0]
        acc[1:] = remaining[:position]
        return float(acc.cumsum()[-1])
    return _walk(remaining[:position].tolist(), free_times)


def _walk(ahead: list[float], free_times: Sequence[float]) -> float:
    """When the next task in line starts, once the RPTs *ahead* of it
    (in priority order) have each taken the earliest-free processor:
    the heap walk, one ``+`` per task (on one processor a left-to-right
    sum)."""
    if not ahead:
        return float(min(free_times))  # nothing ahead: the earliest-free processor
    # an owned list of Python floats, whatever the caller holds (the
    # processor pool hands over a plain list)
    heap = [float(t) for t in free_times]
    heapq.heapify(heap)
    heapreplace = heapq.heapreplace
    for rpt in ahead:
        # the earliest-free processor takes the next task in line
        heapreplace(heap, heap[0] + rpt)
    return heap[0]


def _negative_rpt(rpt: float, position: int) -> SchedulingError:
    return SchedulingError(f"negative RPT {float(rpt)!r} at position {position}")


def project_lone_start(remaining: float, free_times: Sequence[float]) -> float:
    """Projected start of a task that is the whole candidate schedule.

    ``project_next_start([remaining], free_times, 0)`` in closed form:
    with nothing ahead of it the task takes the earliest-free processor
    (the heap's root before any walk), so no array is built.  The same
    inputs are refused.
    """
    if len(free_times) == 0:
        raise SchedulingError("project_lone_start requires at least one processor")
    if remaining < 0:
        raise _negative_rpt(remaining, 0)
    return float(min(free_times))
