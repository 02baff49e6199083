"""Per-site circuit breakers on sim time.

A breaker wraps broker→site negotiation the way a serving stack wraps a
flaky backend: CLOSED passes bids through; K consecutive hard failures
(contract breaches) or an EWMA breach rate over the threshold OPENs it,
and the broker stops soliciting quotes from the site; after a cooldown
the next bid transitions it to HALF_OPEN and a bounded number of probe
contracts go through — one success re-CLOSEs, one failure re-OPENs with
a fresh cooldown.

Everything runs on simulated time and pure event order, so for a fixed
seed the transition log is deterministic — the regression tests pin
that.  The breaker also keeps books on how long it spent OPEN (the
"unavailability" a chaos sweep reports per site).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import MarketError

#: Consecutive hard failures (breaches) that trip a CLOSED breaker OPEN.
BREAKER_FAILURES = 3
#: Alternative trip wire: the site's EWMA breach rate at or above this
#: opens a CLOSED breaker once ``BREAKER_MIN_EVENTS`` outcomes are seen.
BREACH_RATE_THRESHOLD = 0.5
#: Outcomes observed before the breach-rate wire arms (one early breach
#: must not read as rate 1.0).
BREAKER_MIN_EVENTS = 5
#: Sim time an OPEN breaker waits before letting a HALF_OPEN probe
#: through (three mean task durations).
COOLDOWN = 300.0
#: Contracts allowed in flight while HALF_OPEN: one success closes the
#: breaker, one failure re-opens it.
HALF_OPEN_PROBES = 1


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-rate gate for one site's negotiation path."""

    def __init__(self, site_id: str) -> None:
        self.site_id = site_id
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        #: cumulative sim time spent OPEN (closed out by :meth:`finalize`)
        self.open_time = 0.0
        self.opens = 0
        #: (sim time, from-state, to-state) — deterministic per seed
        self.transitions: list[tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    def _move(self, to: BreakerState, now: float) -> None:
        if to is self.state:
            return
        if self.state is BreakerState.OPEN and self._opened_at is not None:
            self.open_time += now - self._opened_at
            self._opened_at = None
        self.transitions.append((now, self.state.value, to.value))
        self.state = to
        if to is BreakerState.OPEN:
            self.opens += 1
            self._opened_at = now
            self._probes_in_flight = 0
        elif to is BreakerState.HALF_OPEN:
            self._probes_in_flight = 0
        elif to is BreakerState.CLOSED:
            self.consecutive_failures = 0
            self._probes_in_flight = 0

    # ------------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """Whether the broker may solicit this site for a new contract.

        An OPEN breaker whose cooldown has elapsed flips to HALF_OPEN as
        a side effect — the probing bid is the recovery mechanism.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self._opened_at is not None
            if now >= self._opened_at + COOLDOWN:
                self._move(BreakerState.HALF_OPEN, now)
                return True
            return False
        return self._probes_in_flight < HALF_OPEN_PROBES

    def note_probe(self) -> None:
        """A HALF_OPEN solicitation was awarded; account the probe slot."""
        if self.state is BreakerState.HALF_OPEN:
            self._probes_in_flight += 1

    # ------------------------------------------------------------------
    def record_success(self, now: float) -> None:
        """A contract settled cleanly (or a probe survived)."""
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._move(BreakerState.CLOSED, now)

    def record_failure(
        self, now: float, breach_rate: float = 0.0, events: int = 0
    ) -> None:
        """A hard failure (a contract breach) was observed."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._move(BreakerState.OPEN, now)
            return
        if self.state is not BreakerState.CLOSED:
            return
        rate_tripped = (
            events >= BREAKER_MIN_EVENTS and breach_rate >= BREACH_RATE_THRESHOLD
        )
        if self.consecutive_failures >= BREAKER_FAILURES or rate_tripped:
            self._move(BreakerState.OPEN, now)

    # ------------------------------------------------------------------
    def finalize(self, now: float) -> None:
        """Close the open-time books at the end of a run."""
        if self.state is BreakerState.OPEN and self._opened_at is not None:
            if now < self._opened_at:
                raise MarketError(
                    f"finalize at {now!r} precedes breaker open at {self._opened_at!r}"
                )
            self.open_time += now - self._opened_at
            self._opened_at = now

    def summary(self) -> dict:
        return {
            "state": self.state.value,
            "opens": self.opens,
            "open_time": self.open_time,
            "consecutive_failures": self.consecutive_failures,
            "transitions": len(self.transitions),
        }

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.site_id!r} {self.state.value} "
            f"opens={self.opens} open_time={self.open_time:.1f}>"
        )
