"""The clock abstraction: where "now" comes from, and how to wait.

The scheduling, admission, and market layers never read time directly —
they ask a :class:`Clock`.  In simulation the clock is the DES kernel's
:attr:`~repro.sim.kernel.Simulator.now` (:class:`SimClock`); in
:mod:`repro.live` it is the monotonic wall clock
(:class:`repro.live.clock.WallClock`).  Shared code thereby becomes a
pure function of the clock handed to it, and the same admission /
scheduling / settlement code drives both the simulated and the real-time
service.  Coroutines wait the same way: ``await clock.sleep(delay)`` is
one kernel event on a :class:`SimClock` (:mod:`repro.sim.coroutine`) and
an ``asyncio.sleep`` on the wall clock.

Two invariants keep the split safe:

* ``SimClock.now`` returns the kernel's clock float *unchanged* — sim
  mode is byte-identical before and after the refactor (the golden
  regression suites pin this).
* Wall-clock reading implementations live only in :mod:`repro.live`
  (the allowlisted wall-clock path); the DET002 source guard
  (``tests/analysis/test_static_rules.py``) keeps them out of every
  shared sim-path module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Awaitable, Protocol, runtime_checkable

from repro.sim.coroutine import Sleep

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.kernel import Simulator


@runtime_checkable
class Clock(Protocol):
    """A ``now`` to read and a ``sleep`` to await — the only time
    interface shared code sees."""

    @property
    def now(self) -> float:
        """The current time in simulation time units."""
        ...  # pragma: no cover - protocol stub

    def sleep(self, delay: float) -> Awaitable[None]:
        """Awaitable that resumes the caller *delay* time units from now."""
        ...  # pragma: no cover - protocol stub


class SimClock:
    """The simulation kernel's clock, read-only.

    A thin view over :attr:`Simulator.now`: advancing happens only
    through event dispatch, so holders of a ``SimClock`` can read time
    but never move it.

    >>> from repro.sim.kernel import Simulator
    >>> sim = Simulator(start=3.0)
    >>> SimClock(sim).now
    3.0
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now

    def sleep(self, delay: float) -> Sleep:
        """One essential kernel event *delay* from now (the awaiting
        coroutine must be driven by a :class:`~repro.sim.coroutine.Coroutine`)."""
        return Sleep(delay)

    def __repr__(self) -> str:
        return f"<SimClock now={self._sim.now:g}>"
