"""Contracts formed when a client accepts a server bid (§2).

"Once the customer and the site agree on the expected completion time
and value, a contract is formed.  If the site delays the task beyond the
negotiated completion time, then the value function associated with the
contract determines the reduced price or penalty."
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from repro.errors import ContractViolation
from repro.tasks.bid import ServerBid, TaskBid
from repro.tasks.task import Task
from repro.valuefn.linear import LinearDecayValueFunction

_contract_ids = itertools.count()


def reserve_contract_ids(next_id: int) -> int:
    """Advance the contract-id counter to at least *next_id*.

    The crash-recovery counterpart of ``reserve_bid_ids``: keeps
    post-recovery contract ids disjoint from everything already in the
    journal.  Returns the new floor.
    """
    global _contract_ids
    current = next(_contract_ids)
    floor = max(current + 1, int(next_id))
    _contract_ids = itertools.count(floor)
    return floor


class Contract:
    """A signed agreement between a client and a site for one task.

    The contract binds the task's value function; settlement evaluates it
    at the actual completion time.  ``settle`` may be called exactly
    once.
    """

    __slots__ = (
        "contract_id",
        "site_id",
        "client_id",
        "bid",
        "vf",
        "signed_at",
        "promised_completion",
        "agreed_price",
        "settled",
        "actual_completion",
        "actual_price",
        "task_tid",
        "task",
    )

    def __init__(self, bid: TaskBid, server_bid: ServerBid, signed_at: float) -> None:
        if server_bid.bid_id != bid.bid_id:
            raise ContractViolation(
                f"server bid {server_bid.bid_id} does not answer client bid {bid.bid_id}"
            )
        self.contract_id = next(_contract_ids)
        self.site_id = server_bid.site_id
        self.client_id = bid.client_id
        self.bid = bid
        self.vf: LinearDecayValueFunction = bid.value_function()
        self.signed_at = float(signed_at)
        self.promised_completion = server_bid.expected_completion
        self.agreed_price = server_bid.expected_price
        self.settled = False
        self.actual_completion: Optional[float] = None
        self.actual_price: Optional[float] = None
        #: tid of the site-side task executing this contract (set at
        #: award time; links market spans to task lifecycle spans)
        self.task_tid: Optional[int] = None
        #: the task itself, for a contract a site is executing (a
        #: contract rebuilt from a journal knows only the tid)
        self.task: Optional[Task] = None

    def price_at(self, completion: float, release: float) -> float:
        """Price owed if the task released at *release* completes at *completion*."""
        delay = max(0.0, completion - release - self.bid.runtime)
        return self.vf.yield_at(delay)

    def settle(self, completion: float, release: float) -> float:
        """Record the actual completion; returns the price (or penalty) owed."""
        if self.settled:
            raise ContractViolation(f"contract {self.contract_id} already settled")
        if not math.isfinite(completion) or completion < self.signed_at:
            raise ContractViolation(
                f"settlement completion {completion!r} precedes signing "
                f"at {self.signed_at!r}"
            )
        self.settled = True
        self.actual_completion = float(completion)
        self.actual_price = self.price_at(completion, release)
        return self.actual_price

    def settle_breach(self, now: float) -> float:
        """Settle an abandoned task at the value-function floor (bounded only)."""
        if self.settled:
            raise ContractViolation(f"contract {self.contract_id} already settled")
        floor = self.vf.floor
        if math.isinf(floor):
            raise ContractViolation(
                f"contract {self.contract_id}: cannot abandon a task with "
                "unbounded penalties"
            )
        self.settled = True
        self.actual_completion = float(now)
        self.actual_price = floor
        return floor

    def settle_abandoned(self, now: float, release: float) -> float:
        """Settle a contract whose execution failed (live mode).

        :meth:`settle_breach` covers the simulator's abandonment case —
        bounded penalties, floor owed.  A *live* execution can also fail
        with unbounded penalties (subprocess error, timeout kill), where
        no floor exists; the accounting is then: the client owes nothing
        for results never delivered, and the site owes whatever penalty
        the value function has accrued by the abandonment instant —
        ``min(0, price_at(now))``, which the bounded case floors at
        ``−bound`` as usual.
        """
        if self.settled:
            raise ContractViolation(f"contract {self.contract_id} already settled")
        if not math.isfinite(now) or now < self.signed_at:
            raise ContractViolation(
                f"abandonment time {now!r} precedes signing at {self.signed_at!r}"
            )
        self.settled = True
        self.actual_completion = float(now)
        self.actual_price = min(0.0, self.price_at(now, release))
        return self.actual_price

    @property
    def on_time(self) -> bool:
        """True if the settled completion met the promise (unset ⇒ False)."""
        return (
            self.settled
            and self.actual_completion is not None
            and self.actual_completion <= self.promised_completion + 1e-9
        )

    def __repr__(self) -> str:
        status = "settled" if self.settled else "open"
        return (
            f"<Contract {self.contract_id} site={self.site_id!r} "
            f"promised={self.promised_completion:g} {status}>"
        )
