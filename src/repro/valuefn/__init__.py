"""Value (utility) functions — §3 of the paper.

A value function maps a task's *delay* (queueing + preemption time beyond
its minimum run time) to the value the user pays on completion.  The
paper's primary model is linear decay with an optional penalty bound
(:class:`LinearDecayValueFunction`, Fig. 2 / Eq. 1); the paper notes the
framework "can generalize to value functions that decay at variable
rates", which :class:`PiecewiseLinearValueFunction` implements as the
documented extension.
"""

from repro.valuefn.base import ValueFunction
from repro.valuefn.linear import LinearDecayValueFunction
from repro.valuefn.piecewise import PiecewiseLinearValueFunction

__all__ = [
    "LinearDecayValueFunction",
    "PiecewiseLinearValueFunction",
    "ValueFunction",
]
