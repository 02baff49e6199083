"""Causal lifecycle spans.

A :class:`Span` is a named interval of simulated time with a parent
link; instants (zero-duration marks such as a preemption or a node
crash) share the same record with ``end == start``.  The
:class:`SpanTracker` hands out ids and keeps the finished-span list —
the one store of what a site did — under an optional capacity bound,
counting what it drops.

The task lifecycle tree built by :class:`~repro.obs.instrument.Observability`:

    task:<tid>                      root, submission -> terminal state
    ├─ negotiation:<id>             (market runs only) request -> contract
    ├─ queued                       accept -> dispatch, one per wait
    ├─ running                      dispatch -> completion/preemption/crash,
    │   │                           with its site and the ids of the nodes
    │   │                           it held
    │   └─ preempted / crashed      instant, closes the running span
    └─ completed|aborted|breached   instant, closes the root

Parent/child links cross the market/site boundary: the negotiation span
that produced a contract is recorded as a child of the task's root span,
so one tree explains *why* a task ran where and when it did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    """One interval (or instant, when ``end == start``) of a lifecycle."""

    span_id: int
    name: str
    category: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    task_id: Optional[int] = None
    track: Optional[str] = None  # display lane (chrome "tid"): task/node/negotiation
    args: dict = field(default_factory=dict)
    run: int = 0  # replication the span belongs to (chrome "pid")

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def is_instant(self) -> bool:
        return self.end == self.start

    def __repr__(self) -> str:
        end = f"{self.end:g}" if self.end is not None else "open"
        return f"<Span #{self.span_id} {self.category}:{self.name} [{self.start:g}, {end}]>"


class SpanTracker:
    """Creates, closes, and retains spans for one observed run set.

    Parameters
    ----------
    capacity:
        Optional cap on *finished* spans retained; the oldest are dropped
        first and counted in :attr:`dropped`.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self._ids = itertools.count()
        self._capacity = capacity
        self.finished: list[Span] = []
        self.open_count = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def open(
        self,
        name: str,
        category: str,
        start: float,
        parent: Optional[Span] = None,
        task_id: Optional[int] = None,
        track: Optional[str] = None,
        **args,
    ) -> Span:
        span = Span(
            span_id=next(self._ids),
            name=name,
            category=category,
            start=start,
            parent_id=parent.span_id if parent is not None else None,
            task_id=task_id if task_id is not None else (parent.task_id if parent else None),
            track=track if track is not None else (parent.track if parent else None),
            args=args,
        )
        self.open_count += 1
        return span

    def close(self, span: Span, end: float, **args) -> Span:
        if span.closed:
            raise ValueError(f"span #{span.span_id} ({span.name}) is already closed")
        if end < span.start:
            raise ValueError(
                f"span #{span.span_id} cannot close at {end!r} before its start {span.start!r}"
            )
        span.end = end
        if args:
            span.args.update(args)
        self.open_count -= 1
        self._retain(span)
        return span

    def instant(
        self,
        name: str,
        category: str,
        ts: float,
        parent: Optional[Span] = None,
        task_id: Optional[int] = None,
        track: Optional[str] = None,
        **args,
    ) -> Span:
        span = self.open(name, category, ts, parent=parent, task_id=task_id, track=track, **args)
        span.end = ts
        self.open_count -= 1
        self._retain(span)
        return span

    def _retain(self, span: Span) -> None:
        self.finished.append(span)
        if self._capacity is not None and len(self.finished) > self._capacity:
            overflow = len(self.finished) - self._capacity
            del self.finished[:overflow]
            self.dropped += overflow

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.finished)

    def of_name(self, name: str) -> list[Span]:
        return [s for s in self.finished if s.name == name]

    def of_category(self, category: str) -> list[Span]:
        return [s for s in self.finished if s.category == category]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.finished if s.parent_id == span.span_id]

    def tree(self, root: Span) -> list[Span]:
        """*root* plus every finished descendant, in span-id order."""
        by_parent: dict[Optional[int], list[Span]] = {}
        for s in self.finished:
            by_parent.setdefault(s.parent_id, []).append(s)
        out: list[Span] = []
        stack = [root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(by_parent.get(node.span_id, []))
        return sorted(out, key=lambda s: s.span_id)

    def __repr__(self) -> str:
        return (
            f"<SpanTracker finished={len(self.finished)} open={self.open_count} "
            f"dropped={self.dropped}>"
        )
