"""Pending-event set: a binary heap with lazy cancellation.

Events fire in ``(time, priority, seq)`` order.  The heap holds
``(time, priority, seq, event)`` tuples; ``seq`` is unique, so two
entries never tie before the event and the heap never compares two
:class:`~repro.sim.events.Event` objects.  ``cancel`` marks the event
and leaves its entry where it is; cancelled entries are discarded when
they reach the head (on ``peek``/``pop``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventState

# hot-path constants: module-level bindings are one LOAD_GLOBAL instead
# of a module attribute lookup plus an enum attribute lookup per event
_PENDING = EventState.PENDING
_CANCELLED = EventState.CANCELLED


class EventQueue:
    """Priority queue of pending events ordered by ``(time, priority, seq)``."""

    __slots__ = ("_heap", "_seq", "_essential")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._essential = 0  # live non-daemon events

    def push(self, event: Event) -> Event:
        """Insert *event*, assigning its insertion sequence number."""
        if event.state is not _PENDING:
            raise SimulationError(f"cannot enqueue non-pending event {event!r}")
        seq = self._seq
        event.seq = seq
        self._seq = seq + 1
        if not event.daemon:
            self._essential += 1
        heappush(self._heap, (event.time, event.priority, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Mark *event* cancelled; it will be skipped on pop.

        Cancelling an already-cancelled or already-fired event is an
        error: it almost always indicates a stale handle bug in the
        caller.
        """
        if event.cancelled:
            raise SimulationError(f"event already cancelled: {event!r}")
        if event.fired:
            raise SimulationError(f"event already fired: {event!r}")
        event.state = _CANCELLED
        if not event.daemon:
            self._essential -= 1

    def peek(self) -> Optional[Event]:
        """The next event to fire, or None when empty (does not remove)."""
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event.state is not _CANCELLED:
                return event
            heappop(heap)
        return None

    def pop(self) -> Event:
        """Remove and return the next pending event.

        The returned event is still in state PENDING; the kernel marks it
        FIRED when it actually runs the callback.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event.state is not _CANCELLED:
                if not event.daemon:
                    self._essential -= 1
                return event
        raise SimulationError("pop from empty event queue")

    @property
    def essential_count(self) -> int:
        """Live non-daemon events — what keeps a simulation running."""
        return self._essential
