"""Pending-event set: a sorted lane beside a heap, with lazy cancellation.

Events fire in ``(time, priority, seq)`` order.  The classic structure is
a binary heap of :class:`~repro.sim.events.Event` objects with lazy
cancellation — ``cancel`` marks the event and leaves it where it is, and
cancelled entries are skipped (and discarded) on pop/peek — and that is
what holds every event pushed *out of order*.  Two refinements:

* **Sorted lane.**  Most events are pushed in order: a workload's
  arrivals are scheduled up front by ascending time, a completion chain
  or a daemon tick schedules its successor and is popped next.  An event
  whose key is greater than the lane's tail — or that finds the lane
  spent — is appended to a plain list consumed by a cursor: O(1) push
  and pop, no comparison below the tail.  Everything else goes to the
  heap, and ``peek``/``pop`` take the smaller of the two heads.  Sequence
  numbers are assigned exactly as without the lane, so the firing order
  is the heap's total order by construction; with the arrivals in the
  lane the heap holds only the in-flight completions.
* **Precomputed keys.**  ``Event.key`` is built once at push time; every
  comparison is then a plain tuple compare instead of two attribute
  lookups, two method calls, and two tuple constructions.

The lane drops its reference to an entry as the cursor passes it: a
fired event keeps its ``args`` (a task, a bid) alive, and a lane that
held them until it was spent would hold a whole run's worth.
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

# consumed lane prefix from which an append may first compact the list
_COMPACT_AT = 64


class EventQueue:
    """Priority queue of pending events ordered by ``(time, priority, seq)``."""

    __slots__ = ("_heap", "_lane", "_pos", "_seq", "_live", "_essential")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        # ascending by key; entries before _pos are consumed (set to None)
        self._lane: list[Optional[Event]] = []
        self._pos = 0
        self._seq = 0
        self._live = 0  # number of non-cancelled events in the queue
        self._essential = 0  # live non-daemon events

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event*, assigning its insertion sequence number."""
        if event.state is not _PENDING:
            raise SimulationError(f"cannot enqueue non-pending event {event!r}")
        seq = self._seq
        event.seq = seq
        event.key = key = (event.time, event.priority, seq)
        self._seq = seq + 1
        self._live += 1
        if not event.daemon:
            self._essential += 1
        lane = self._lane
        pos = self._pos
        if pos < len(lane) and key < lane[-1].key:
            heappush(self._heap, event)
        else:
            # follows the tail, or finds the lane spent and starts the next.
            # A lane fed as fast as it drains is never spent, so a long
            # consumed prefix is dropped here too
            if pos == len(lane) or (pos >= _COMPACT_AT and 2 * pos >= len(lane)):
                del lane[:pos]
                self._pos = 0
            lane.append(event)
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
        event.state = EventState.CANCELLED
        self._live -= 1
        if not event.daemon:
            self._essential -= 1

    def _drop_cancelled(self) -> int:
        """Discard cancelled entries at both heads; returns the lane cursor."""
        lane = self._lane
        pos = self._pos
        end = len(lane)
        while pos < end and lane[pos].state is _CANCELLED:
            lane[pos] = None
            pos += 1
        self._pos = pos
        heap = self._heap
        while heap and heap[0].state is _CANCELLED:
            heappop(heap)
        return pos

    def peek(self) -> Optional[Event]:
        """The next event to fire, or None when empty (does not remove)."""
        pos = self._drop_cancelled()
        lane = self._lane
        heap = self._heap
        if pos < len(lane) and not (heap and heap[0].key < lane[pos].key):
            return lane[pos]
        return heap[0] if heap else None

    def pop(self) -> Event:
        """Remove and return the next pending event.

        The returned event is still in state PENDING; the kernel marks it
        FIRED when it actually runs the callback.
        """
        pos = self._drop_cancelled()
        lane = self._lane
        heap = self._heap
        if pos < len(lane) and not (heap and heap[0].key < lane[pos].key):
            event = lane[pos]
            lane[pos] = None  # the lane must not keep what has fired alive
            self._pos = pos + 1
        elif heap:
            event = heappop(heap)
        else:
            raise SimulationError("pop from empty event queue")
        self._live -= 1
        if not event.daemon:
            self._essential -= 1
        return event

    @property
    def essential_count(self) -> int:
        """Live non-daemon events — what keeps a simulation running."""
        return self._essential
