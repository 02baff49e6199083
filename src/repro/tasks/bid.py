"""Bids exchanged in the market protocol (§2, §6).

A client submits a :class:`TaskBid` — "each task i's expected run time
and its value function as a tuple (runtime_i, value_i, decay_i,
bound_i)" (§6).  A site that accepts responds with a :class:`ServerBid`
carrying the expected completion time and the expected price in the
site's candidate schedule.  Site policies "act as if the price is
derived directly from the original value function" (§6); pluggable
pricing lives in :mod:`repro.market.pricing`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.domain import MAX_MAGNITUDE
from repro.errors import MarketError
from repro.valuefn.linear import LinearDecayValueFunction

_bid_ids = itertools.count()


def reserve_bid_ids(next_id: int) -> int:
    """Advance the bid-id counter to at least *next_id*; returns the floor.

    Crash recovery calls this after replaying a journal: a restarted
    process would otherwise hand out ids already on the record, and the
    stitched journal would show two distinct bids sharing one id.  The
    counter never moves backwards — one id is consumed to learn its
    position, so no previously issued id can recur.
    """
    global _bid_ids
    current = next(_bid_ids)
    floor = max(current + 1, int(next_id))
    _bid_ids = itertools.count(floor)
    return floor


@dataclass(frozen=True)
class TaskBid:
    """A client's sealed bid for running one task.

    Attributes
    ----------
    runtime:
        Declared service demand (assumed accurate, §4).
    value, decay:
        The linear value function's parameters.
    bound:
        Penalty bound (``None`` = unbounded penalties).
    demand:
        Nodes requested (1 in all paper experiments).
    client_id:
        Opaque identifier of the bidding client/broker.
    released_at:
        Simulated time the client released the task — the anchor the
        value function decays from.  ``None`` means "anchor at award
        time" (instant-negotiation semantics); the trace driver fills in
        the arrival time and the live service its intake time, so
        negotiation and queueing count as delay.
    """

    runtime: float
    value: float
    decay: float
    bound: Optional[float] = None
    demand: int = 1
    client_id: Optional[str] = None
    released_at: Optional[float] = None
    bid_id: int = field(default_factory=lambda: next(_bid_ids))
    #: the value function the tuple above spells, built once (the bid is frozen)
    _vf: LinearDecayValueFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.runtime <= MAX_MAGNITUDE:
            raise MarketError(f"runtime must be in (0, {MAX_MAGNITUDE:g}], got {self.runtime!r}")
        if self.demand < 1:
            raise MarketError(f"bid demand must be >= 1, got {self.demand!r}")
        # delegate value/decay/bound validation to the value-function model
        vf = LinearDecayValueFunction(self.value, self.decay, self.bound)
        object.__setattr__(self, "_vf", vf)

    def value_function(self) -> LinearDecayValueFunction:
        """The bid's value function (built and validated once, at construction)."""
        return self._vf

    def as_tuple(self) -> tuple[float, float, float, Optional[float]]:
        """The paper's ``(runtime, value, decay, bound)`` tuple."""
        return (self.runtime, self.value, self.decay, self.bound)


@dataclass(frozen=True)
class ServerBid:
    """A site's response to a TaskBid it is willing to accept.

    ``expected_completion`` and ``expected_price`` are read off the
    site's candidate schedule at bid time; they are expectations, not
    guarantees — later arrivals may delay the task, in which case the
    contract's value function determines the reduced price or penalty
    (§2).
    """

    site_id: str
    bid_id: int
    expected_completion: float
    expected_price: float
    expected_slack: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.expected_completion):
            raise MarketError(
                f"expected_completion must be finite, got {self.expected_completion!r}"
            )
