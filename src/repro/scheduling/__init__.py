"""Scheduling heuristics (§4–§5 of the paper).

Every heuristic assigns each pending task a *score*; the site engine runs
the highest-scored task first.  All score computations are vectorized
over the pending pool's NumPy columns (see :mod:`repro.scheduling.pool`).

Implemented heuristics:

=================  =====================================================
``fcfs``           First Come First Served (baseline, §4)
``srpt``           Shortest Remaining Processing Time (baseline, §4)
``swpt``           Shortest Weighted Processing Time ``d_i/RPT_i`` (§4)
``firstprice``     Millennium FirstPrice — unit gain ``yield_i/RPT_i``
``pv``             Present Value — discounted unit gain (Eq. 3, §5.1)
``firstreward``    Risk/reward blend of PV and opportunity cost
                   (Eq. 4–6, §5.2–5.3)
``survival``       Failure-aware wrapper: any base heuristic's scores
                   discounted by P(node survives RPT)
                   (``repro.faults`` extension)
=================  =====================================================
"""

from repro.scheduling.base import (
    PoolColumns,
    SchedulingHeuristic,
    current_delays,
    current_yields,
    decay_horizons,
    effective_decay,
)
from repro.scheduling.baselines import FCFS, SRPT, SWPT, PriorityFCFS
from repro.scheduling.candidate import project_lone_start, project_next_start
from repro.scheduling.cost import opportunity_costs
from repro.scheduling.firstprice import FirstPrice
from repro.scheduling.firstreward import FirstReward
from repro.scheduling.pool import PendingPool
from repro.scheduling.presentvalue import PresentValue
from repro.scheduling.registry import available_heuristics, make_heuristic
from repro.scheduling.survival import SurvivalDiscount

__all__ = [
    "FCFS",
    "SRPT",
    "SWPT",
    "FirstPrice",
    "FirstReward",
    "PendingPool",
    "PoolColumns",
    "PresentValue",
    "PriorityFCFS",
    "SchedulingHeuristic",
    "SurvivalDiscount",
    "available_heuristics",
    "current_delays",
    "current_yields",
    "decay_horizons",
    "effective_decay",
    "make_heuristic",
    "opportunity_costs",
    "project_lone_start",
    "project_next_start",
]
