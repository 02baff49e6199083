"""Wall clocks for live mode.

The shared market/scheduling code reads time exclusively through the
:class:`~repro.sim.clock.Clock` protocol.  In simulation the clock is a
:class:`~repro.sim.clock.SimClock` view over the DES kernel; in live
mode it is a :class:`WallClock` — monotonic wall time rescaled into the
market's time units — so the *same* admission, heuristic, and
settlement arithmetic runs against real time without modification.

Scaling: the paper's experiments speak in abstract time units (mean
runtime 300, slack threshold 180, ...).  Running those literally on the
wall clock would make every task minutes long, so the wall clock takes a
``rate`` — time units per wall-clock second.  ``rate=60`` makes one
wall second worth one simulated minute; a 300-unit task then occupies a
node for 5 real seconds.  All market quantities (quotes, slack,
contracts, value decay) stay in units; only the subprocess executor
converts to seconds at the boundary (``units / rate``).

:class:`FrozenClock` is the test double: a clock that moves only when
told to, letting unit tests pin "now" while exercising the exact live
code paths.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Awaitable

from repro.errors import LiveServiceError


class WallClock:
    """Monotonic wall time in market time units.

    ``now`` is ``(monotonic − epoch) × rate`` where the epoch is frozen
    at construction: time starts at 0.0 when the service boots, mirroring
    the simulator's convention, and never goes backwards (monotonic
    source, no NTP steps).

    Parameters
    ----------
    rate:
        Time units per wall-clock second (> 0, finite).  1.0 means one
        unit is one second; larger values accelerate the market.
    start:
        Market time at construction (default 0.0).  Crash recovery
        resumes the clock from the last journaled timestamp so recovered
        time continues the pre-crash timeline — contracts signed before
        the crash can still settle (settlement must not precede
        signing), and the stitched journal stays monotonic.
    """

    __slots__ = ("rate", "start", "_epoch")

    def __init__(self, rate: float = 1.0, start: float = 0.0) -> None:
        if not math.isfinite(rate) or rate <= 0:
            raise LiveServiceError(f"clock rate must be finite and > 0, got {rate!r}")
        if not math.isfinite(start) or start < 0:
            raise LiveServiceError(
                f"clock start must be finite and >= 0, got {start!r}"
            )
        self.rate = float(rate)
        self.start = float(start)
        self._epoch = time.monotonic()

    @property
    def now(self) -> float:
        """Current time in market units since service start."""
        return self.start + (time.monotonic() - self._epoch) * self.rate

    def sleep(self, delay: float) -> Awaitable[None]:
        """``asyncio.sleep`` for *delay* market units of wall time."""
        return asyncio.sleep(self.to_seconds(delay))

    def to_seconds(self, units: float) -> float:
        """Convert a duration in market units to wall-clock seconds."""
        return units / self.rate

    def to_units(self, seconds: float) -> float:
        """Convert a wall-clock duration in seconds to market units."""
        return seconds * self.rate

    def __repr__(self) -> str:
        return f"<WallClock rate={self.rate:g} now={self.now:.3f}>"


class FrozenClock:
    """A manually-advanced clock for tests and benchmarks.

    Satisfies the :class:`~repro.sim.clock.Clock` protocol with a plain
    settable attribute; ``advance`` enforces monotonicity the way the
    real sources do.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if not math.isfinite(start):
            raise LiveServiceError(f"clock start must be finite, got {start!r}")
        self.now = float(start)

    def advance(self, delta: float) -> float:
        """Move time forward by *delta* units; returns the new now."""
        if not math.isfinite(delta) or delta < 0:
            raise LiveServiceError(f"clock advance must be >= 0, got {delta!r}")
        self.now += delta
        return self.now

    async def sleep(self, delay: float) -> None:
        """Sleeping is being told to move: advance by *delay*, at once."""
        self.advance(delay)

    def __repr__(self) -> str:
        return f"<FrozenClock now={self.now:g}>"
