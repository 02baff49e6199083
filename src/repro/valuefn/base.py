"""Abstract interface shared by every value-function model."""

from __future__ import annotations

import abc
import math


class ValueFunction(abc.ABC):
    """Maps task delay to user value (yield).

    *Delay* is the task's completion time beyond its best case:
    ``delay = completion - (arrival + runtime)`` (Eq. 2).  A delay of 0
    earns the task's maximum value; yields may go negative (penalties).

    Implementations must be monotone non-increasing in delay.
    """

    @abc.abstractmethod
    def yield_at(self, delay: float) -> float:
        """Yield earned if the task completes after *delay* extra time units."""

    @abc.abstractmethod
    def decay_at(self, delay: float) -> float:
        """Instantaneous decay rate (value lost per unit of extra delay) at *delay*.

        Zero once the function has expired (stopped decaying).
        """

    @property
    @abc.abstractmethod
    def max_value(self) -> float:
        """Value at zero delay."""

    @property
    @abc.abstractmethod
    def expiration_delay(self) -> float:
        """Delay beyond which the yield no longer decreases.

        ``math.inf`` for unbounded penalties.  The paper calls the
        corresponding absolute time the task's *expiration time*.
        """

    def is_expired(self, delay: float) -> bool:
        """True when the function has stopped decaying at *delay*."""
        return delay >= self.expiration_delay

    def remaining_decay_horizon(self, delay: float) -> float:
        """Time of further decay left at *delay* (``inf`` if unbounded).

        This is the ``expire_j`` term of Eq. 4: delaying the task by more
        than this costs no more than delaying it by exactly this much.
        """
        if math.isinf(self.expiration_delay):
            return math.inf
        return max(0.0, self.expiration_delay - delay)

    @property
    def floor(self) -> float:
        """Lowest attainable yield (``-inf`` when penalties are unbounded)."""
        if math.isinf(self.expiration_delay):
            return -math.inf
        return self.yield_at(self.expiration_delay)
