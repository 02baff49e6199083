"""Simulation events.

An :class:`Event` is a callback scheduled to fire at a simulated time.
The event queue fires events in ``(time, priority, seq)`` order: earlier
time first, then lower priority number, then insertion order — so
simultaneous events fire deterministically in the order they were
scheduled.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional


class EventState(enum.Enum):
    """Lifecycle of an event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


class Event:
    """A single scheduled callback.

    Events are created by :meth:`repro.sim.kernel.Simulator.schedule` and
    friends; user code normally only keeps a reference in order to
    :meth:`repro.sim.kernel.Simulator.cancel` it.

    Attributes
    ----------
    time:
        Simulated time at which the event fires.
    priority:
        Tie-break among events at the same time; lower fires first.
        Defaults to 0.  The kernel reserves no values; libraries built on
        the kernel may use e.g. negative priorities for bookkeeping that
        must precede user events.
    seq:
        Monotone insertion index assigned by the queue; final tie-break.
    callback:
        Callable invoked as ``callback(*args)`` when the event fires.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "args",
        "state",
        "tag",
        "daemon",
    )

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
        priority: int = 0,
        tag: Optional[str] = None,
        daemon: bool = False,
    ) -> None:
        self.time = float(time)
        self.priority = priority
        #: assigned by the queue on push
        self.seq = -1
        self.callback = callback
        self.args = args
        self.state = EventState.PENDING
        self.tag = tag
        #: daemon events (periodic recharges, crash timers) do not keep the
        #: simulation alive: run() stops once only daemons remain
        self.daemon = daemon

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return self.state is EventState.PENDING

    @property
    def cancelled(self) -> bool:
        return self.state is EventState.CANCELLED

    @property
    def fired(self) -> bool:
        return self.state is EventState.FIRED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.callback, "__name__", repr(self.callback))
        tag = f" tag={self.tag!r}" if self.tag else ""
        return (
            f"<Event t={self.time:.6g} prio={self.priority} seq={self.seq} "
            f"{self.state.value} cb={name}{tag}>"
        )
