"""Heap-ordered pending-event set with lazy cancellation and a head slot.

The queue is a binary heap of :class:`~repro.sim.events.Event` objects.
Cancellation marks the event and leaves it in the heap; cancelled entries
are skipped (and discarded) on pop/peek.  This keeps both ``push`` and
``cancel`` O(log n) / O(1) while preserving heap integrity — the standard
technique for DES kernels and priority-queue based schedulers.

Two hot-path refinements on top of the classic design:

* **Head slot.**  Discrete-event kernels overwhelmingly push an event and
  pop it next (completion chains, daemon ticks, cascades).  A pushed
  event that precedes everything already queued parks in a one-element
  slot instead of the heap, so the push and the following pop are O(1)
  with a single comparison instead of O(log n) heap sifts.  The slot
  always holds the global minimum of the live set when occupied, so
  ordering is exactly the heap's ``(time, priority, seq)`` total order.
* **Precomputed keys.**  ``Event.key`` is rebuilt once at push time;
  every heap comparison is then a plain tuple compare instead of two
  attribute lookups, two method calls, and two tuple constructions.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventState

# hot-path constants: module-level bindings are one LOAD_GLOBAL instead
# of a module attribute lookup plus an enum attribute lookup per event
_PENDING = EventState.PENDING
_CANCELLED = EventState.CANCELLED


class EventQueue:
    """Priority queue of pending events ordered by ``(time, priority, seq)``."""

    __slots__ = ("_heap", "_head", "_seq", "_live", "_essential")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._head: Optional[Event] = None  # fast slot; minimum when set
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
        head = self._head
        if head is not None and head.state is _CANCELLED:
            self._head = head = None
        heap = self._heap
        if head is None:
            # take the slot only when the event precedes the whole heap —
            # the slot invariant (head == global minimum) depends on it
            if not heap or key < heap[0].key:
                self._head = event
            else:
                heappush(heap, event)
        elif key < head.key:
            heappush(heap, head)
            self._head = event
        else:
            heappush(heap, event)
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

    def _drop_cancelled_head(self) -> None:
        head = self._head
        if head is not None and head.cancelled:
            self._head = None
        heap = self._heap
        while heap and heap[0].cancelled:
            heappop(heap)

    def peek(self) -> Optional[Event]:
        """The next event to fire, or None when empty (does not remove)."""
        self._drop_cancelled_head()
        head = self._head
        if head is not None:
            return head
        return self._heap[0] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next pending event.

        The returned event is still in state PENDING; the kernel marks it
        FIRED when it actually runs the callback.
        """
        self._drop_cancelled_head()
        event = self._head
        if event is not None:
            self._head = None
        else:
            if not self._heap:
                raise SimulationError("pop from empty event queue")
            event = heappop(self._heap)
        self._live -= 1
        if not event.daemon:
            self._essential -= 1
        return event

    @property
    def essential_count(self) -> int:
        """Live non-daemon events — what keeps a simulation running."""
        return self._essential

    def next_time(self) -> Optional[float]:
        """Fire time of the head event, or None when empty."""
        head = self.peek()
        return head.time if head is not None else None

    def iter_pending(self) -> Iterator[Event]:
        """Iterate over live events in arbitrary (heap) order.

        Intended for introspection/tests, not for the hot path.
        """
        head = self._head
        if head is not None and head.pending:
            yield head
        yield from (e for e in self._heap if e.pending)

    def clear(self) -> None:
        """Drop every event (pending ones are marked cancelled)."""
        if self._head is not None:
            if self._head.pending:
                self._head.state = EventState.CANCELLED
            self._head = None
        for event in self._heap:
            if event.pending:
                event.state = EventState.CANCELLED
        self._heap.clear()
        self._live = 0
        self._essential = 0
