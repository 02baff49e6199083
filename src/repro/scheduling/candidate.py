"""Candidate-schedule projection (§6).

Given pending tasks in heuristic priority order and the times at which
each of the site's processors next becomes free, project the expected
start time of a pending task under list scheduling: each successive
task goes to the earliest-free processor.  This is the "candidate
schedule" the paper's sites maintain to quote expected completion times
in server bids and to compute admission-control slack.
"""

from __future__ import annotations

import heapq
from typing import Sequence


def project_next_start(ahead: Sequence[float], free_times: Sequence[float]) -> float:
    """When the next task in line starts, once the RPTs *ahead* of it
    (in priority order, highest first) have each taken the earliest-free
    processor.

    *free_times* has one entry per processor, the time it next becomes
    free (``now`` if idle, the running task's believed completion
    otherwise).  The heap walk adds one RPT per task, so the result is
    that entry of the whole projection bit for bit (a property test holds
    it against the full projection), and admission pays O(position) for
    the one start it consumes.
    """
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
