"""The simulation kernel.

:class:`Simulator` owns the clock and the pending-event set and exposes
the scheduling primitives the rest of the library is built on.  It is a
classic event-driven kernel: ``run`` repeatedly pops the earliest event,
advances the clock to its timestamp, and invokes its callback.  Callbacks
may schedule further events; time never moves backwards.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventState
from repro.sim.queue import EventQueue


class Simulator:
    """Event-driven discrete-event simulator.

    Parameters
    ----------
    start:
        Initial clock value (default 0.0).

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (5.0, ['hello'])
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self._queue = EventQueue()
        self._running = False
        self.events_fired = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        tag: Optional[str] = None,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``callback(*args)`` to run *delay* time units from now.

        ``daemon=True`` marks housekeeping events (periodic recharges,
        crash timers) that should not keep :meth:`run` alive on their own.
        """
        # mirrors schedule_at, unrolled: this is the hottest scheduling
        # entry point, and the extra frame + keyword re-packing showed up
        # in the cascade benchmarks
        now = self.now
        at = now + delay
        if at != at:  # NaN never compares equal to itself
            raise SimulationError("cannot schedule event at NaN time")
        if at < now:
            raise SimulationError(
                f"cannot schedule event in the past: t={at!r} < now={now!r}"
            )
        return self._queue.push(Event(at, callback, args, priority, tag, daemon))

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        tag: Optional[str] = None,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated *time*."""
        if math.isnan(time):
            raise SimulationError("cannot schedule event at NaN time")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: t={time!r} < now={self.now!r}"
            )
        event = Event(time, callback, args, priority=priority, tag=tag, daemon=daemon)
        return self._queue.push(event)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (error if it already fired/was cancelled).

        The error message carries the event's identity (sequence number,
        tag, scheduled time, state) and the current clock — stale-handle
        bugs are usually debugged from exactly this context.
        """
        if not event.pending:
            raise SimulationError(
                f"cannot cancel {event.state.value} event seq={event.seq} "
                f"tag={event.tag!r} t={event.time:g} (now={self.now:g}); "
                "the handle is stale — the event already "
                + ("fired" if event.fired else "was cancelled")
            )
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> Event:
        """Fire exactly one event, advancing the clock to its timestamp."""
        event = self._queue.pop()
        assert event.time >= self.now, "event queue returned an event in the past"
        self.now = event.time
        event.state = EventState.FIRED
        self.events_fired += 1
        event.callback(*event.args)
        return event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event set drains, *until* is reached, or *max_events* fire.

        With ``until`` set, the clock is advanced to exactly ``until`` on
        return (if the simulation drained earlier, the clock still ends at
        ``until``), matching the convention that a bounded run represents
        the full interval.  Daemon events fire while essential work
        remains but never keep the run alive by themselves; with
        ``until`` set, daemons within the horizon do fire.  ``max_events=0``
        fires nothing; a negative value raises :class:`SimulationError`.
        """
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events!r}")
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run call)")
        self._running = True
        queue = self._queue
        fired = 0
        try:
            while max_events is None or fired < max_events:
                # the head is looked at only when its time decides whether
                # to go on: while essential work remains and no horizon is
                # set, step() finds it once
                if until is not None or queue.essential_count == 0:
                    head = queue.peek()
                    if head is None:
                        break
                    if until is None:
                        # only daemon housekeeping remains: let daemons at
                        # the current instant run, then stop
                        if head.time > self.now:
                            break
                    elif head.time > until:
                        break
                self.step()
                fired += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = float(until)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of live scheduled events."""
        return len(self._queue)
