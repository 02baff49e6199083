"""Baseline schedulers (§4): FCFS, SRPT and SWPT.

FCFS and SRPT "do not consider user-centric measures of value"; SWPT is
"the best known heuristic for TWCT" and orders by ``d_i / RPT_i``.
"""

from __future__ import annotations

import numpy as np

from repro.scheduling.base import PoolColumns, SchedulingHeuristic, unit_denominator


class FCFS(SchedulingHeuristic):
    """First Come First Served: earliest arrival first."""

    name = "fcfs"

    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        return -cols.arrival


class SRPT(SchedulingHeuristic):
    """Shortest Remaining Processing Time first."""

    name = "srpt"

    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        return -cols.remaining


class SWPT(SchedulingHeuristic):
    """Shortest Weighted Processing Time: highest ``decay/RPT`` first.

    Optimal for Total Weighted Completion Time when all tasks arrive
    together; value-blind (it only sees urgency).
    """

    name = "swpt"

    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        return cols.decay / unit_denominator(cols)
