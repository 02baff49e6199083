"""The Present Value heuristic (Eq. 3, §5.1).

    PV_i = yield_i / (1 + discount_rate · RPT_i)

"This formula is standard for the present value of an investment
instrument with face value yield_i that matures in time RPT_i ...  higher
discount rates cause the system to discount future gains more
aggressively, making the system more risk-averse."  Tasks are selected in
order of discounted unit gain ``PV_i / RPT_i``; at discount rate 0 this
is exactly FirstPrice.  PV is FirstReward at ``α = 1`` and scores as
such (:class:`~repro.scheduling.base.RewardHeuristic` at ``(1, r)``).
"""

from __future__ import annotations

from repro.domain import checked_rate
from repro.errors import SchedulingError
from repro.scheduling.base import RewardHeuristic


class PresentValue(RewardHeuristic):
    """Discounted unit gain ``PV_i / RPT_i``.

    Parameters
    ----------
    discount_rate:
        Simple-interest rate per time unit (a *fraction*, not a percent:
        the paper's "1%" is ``0.01``).  In ``[0, MAX_MAGNITUDE]``; 0
        reduces to FirstPrice.
    """

    name = "pv"

    def __init__(self, discount_rate: float = 0.01) -> None:
        self.discount_rate = checked_rate(discount_rate, SchedulingError)
        self.affine_key = (1.0, self.discount_rate)


    def __repr__(self) -> str:
        return f"<PresentValue r={self.discount_rate:g}>"
