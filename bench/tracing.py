"""Spans recorded from outside the program, and the wrappers that record them.

The traced run makes the same public calls as the untraced run, but
hands the program objects from this module: a :class:`Simulator`
subclass that times every scheduled callback, and heuristic, admission,
pool, market-site and recorder objects that delegate to the real ones
inside a span.  Nothing under ``src/`` knows it is being traced.

A span is ``(name, start, end, parent)``; spans stay in memory until the
unit that produced them ends, are folded into per-name totals with
:func:`self_times`, and are then dropped.  A layer's *self time* is its
span's duration minus the durations of its direct children (one thread,
so children never overlap).  The tracer's own bookkeeping lands in the
self time of the enclosing span; ``trace.overhead_ratio`` says how much
that is in total.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.market.sites import MarketSite
from repro.obs.flight import FlightRecorder
from repro.scheduling.base import PoolColumns, SchedulingHeuristic
from repro.scheduling.pool import PendingPool
from repro.sim.kernel import Simulator

_now = time.perf_counter


@dataclass
class LayerTime:
    """Totals for one span name."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0

    def add(self, other: "LayerTime", scale: float = 1.0) -> None:
        """Fold *other* in, its times multiplied by *scale*."""
        self.calls += other.calls
        self.inclusive_s += other.inclusive_s * scale
        self.self_s += other.self_s * scale


def self_times(
    names: Sequence[str],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> dict[str, LayerTime]:
    """Fold a span table into per-name call counts, inclusive and self time.

    ``parents[i]`` is the index of span *i*'s parent, or ``-1`` for a
    root.  Self time is duration minus the summed durations of direct
    children, so the self times of a tree add up to its root's duration.
    """
    if not names:
        return {}
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parent = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    own = duration - covered
    out: dict[str, LayerTime] = {}
    for name, total, self_s in zip(names, duration.tolist(), own.tolist()):
        layer = out.get(name)
        if layer is None:
            layer = out[name] = LayerTime()
        layer.calls += 1
        layer.inclusive_s += total
        layer.self_s += self_s
    return out


def residual_share(total_s: float, layers: Mapping[str, LayerTime]) -> float:
    """|total − Σ layer self times| ÷ total: the part no span explains."""
    if total_s <= 0:
        raise ValueError(f"traced total must be positive, got {total_s!r}")
    return abs(total_s - sum(layer.self_s for layer in layers.values())) / total_s


class Tracer:
    """Append-only span store with a parent stack (single thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []

    @property
    def depth(self) -> int:
        """How many spans are open right now."""
        return len(self._stack)

    def begin(self, name: str) -> int:
        span_id = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(span_id)
        self.starts.append(_now())
        return span_id

    def finish(self, span_id: int) -> None:
        self.ends[span_id] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self.begin(name)
        try:
            yield
        finally:
            self.finish(span_id)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* run inside a span called *name*."""
        begin, finish = self.begin, self.finish

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(span_id)

        return traced

    def drain(self) -> dict[str, LayerTime]:
        """Fold the finished spans into layer totals and forget them."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open at drain")
        layers = self_times(self.names, self.parents, self.starts, self.ends)
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        return layers

    def drain_into(self, layers: dict[str, LayerTime], scale: float = 1.0) -> None:
        """:meth:`drain`, added to *layers* with every time multiplied by *scale*."""
        for name, layer in self.drain().items():
            layers.setdefault(name, LayerTime()).add(layer, scale)


def span_name_for_tag(tag: Optional[str]) -> str:
    """Layer that a scheduled callback belongs to, from its event tag."""
    if tag == "arrival":
        return "site.submit"
    if tag == "bid":
        return "market.negotiate"
    if tag is not None and ":complete:" in tag:
        return "site.complete"
    return "sim.callback"


class TracedSimulator(Simulator):
    """A kernel that runs every scheduled callback inside a span.

    ``sim.run`` minus the callback spans is the kernel's own time: the
    event queue, the dispatch loop and the clock.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def schedule(self, delay, callback, *args, priority=0, tag=None, daemon=False):
        timed = self.tracer.wrap(span_name_for_tag(tag), callback)
        return super().schedule(
            delay, timed, *args, priority=priority, tag=tag, daemon=daemon
        )

    def schedule_at(self, time, callback, *args, priority=0, tag=None, daemon=False):
        timed = self.tracer.wrap(span_name_for_tag(tag), callback)
        return super().schedule_at(
            time, timed, *args, priority=priority, tag=tag, daemon=daemon
        )

    def run(self, until=None, max_events=None) -> None:
        with self.tracer.span("sim.run"):
            super().run(until=until, max_events=max_events)


@dataclass
class DepthStats:
    """Pool depth seen by one kind of ``scores()`` call."""

    calls: int = 0
    depth_sum: int = 0
    depth_max: int = 0

    def note(self, depth: int) -> None:
        self.calls += 1
        self.depth_sum += depth
        if depth > self.depth_max:
            self.depth_max = depth

    def add(self, other: "DepthStats") -> None:
        self.calls += other.calls
        self.depth_sum += other.depth_sum
        self.depth_max = max(self.depth_max, other.depth_max)


class TracedHeuristic(SchedulingHeuristic):
    """Delegates ``scores()`` to the real heuristic inside a span.

    The call is filed under who asked: an admission probe (the wrapped
    admission policy sets :attr:`probing`), the preemption pass (the
    union of pending and running columns is longer than the pool), or
    plain dispatch.
    """

    def __init__(self, inner: SchedulingHeuristic, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.pool: Optional[PendingPool] = None
        self.probing = False
        self.depth = {
            "dispatch": DepthStats(),
            "admission": DepthStats(),
            "preempt": DepthStats(),
        }

    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        depth = len(cols)
        if self.probing:
            kind, name = "admission", "scheduling.scores"
        elif self.pool is not None and depth > len(self.pool):
            kind, name = "preempt", "scheduling.scores.preempt"
        else:
            kind, name = "dispatch", "scheduling.scores"
        self.depth[kind].note(depth)
        span_id = self.tracer.begin(name)
        try:
            return self.inner.scores(cols, now)
        finally:
            self.tracer.finish(span_id)


class TracedAdmission:
    """Delegates ``evaluate()`` to the real policy inside a span."""

    def __init__(self, inner: Any, heuristic: TracedHeuristic, tracer: Tracer) -> None:
        self.inner = inner
        self.heuristic = heuristic
        self.tracer = tracer
        self.calls = 0
        self.accepted = 0

    def __getattr__(self, name: str) -> Any:
        # threshold / discount_rate are read by run_market for the journal
        return getattr(self.inner, name)

    def evaluate(self, site: Any, task: Any) -> Any:
        self.heuristic.probing = True
        span_id = self.tracer.begin("site.admission.evaluate")
        try:
            decision = self.inner.evaluate(site, task)
        finally:
            self.tracer.finish(span_id)
            self.heuristic.probing = False
        self.calls += 1
        self.accepted += bool(decision.accept)
        return decision


class TracedPool(PendingPool):
    """The pending pool with its mutations and column reads in spans."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def add(self, task) -> None:
        span_id = self.tracer.begin("scheduling.pool")
        try:
            super().add(task)
        finally:
            self.tracer.finish(span_id)

    def remove_at(self, index: int):
        span_id = self.tracer.begin("scheduling.pool")
        try:
            return super().remove_at(index)
        finally:
            self.tracer.finish(span_id)

    def columns(self) -> PoolColumns:
        span_id = self.tracer.begin("scheduling.pool")
        try:
            return super().columns()
        finally:
            self.tracer.finish(span_id)


def trace_engine(engine: Any, heuristic: TracedHeuristic, tracer: Tracer) -> None:
    """Swap a freshly built (empty) site engine's pool for a traced one."""
    if len(engine.pool):
        raise RuntimeError("the engine already holds pending tasks")
    engine.pool = TracedPool(tracer)
    heuristic.pool = engine.pool


class TracedMarketSite(MarketSite):
    """A market site whose quote, award and forced submit are spans."""

    def __init__(self, tracer: Tracer, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        trace_engine(self.engine, self.engine.heuristic, tracer)
        self.engine.submit = tracer.wrap("site.submit", self.engine.submit)

    def quote(self, bid):
        span_id = self.tracer.begin("market.quote")
        try:
            return super().quote(bid)
        finally:
            self.tracer.finish(span_id)

    def award(self, bid, server_bid):
        span_id = self.tracer.begin("market.award")
        try:
            return super().award(bid, server_bid)
        finally:
            self.tracer.finish(span_id)


class TracedFlightRecorder(FlightRecorder):
    """A flight recorder whose every record is a span."""

    def __init__(self, tracer: Tracer, **kwargs: Any) -> None:
        self.tracer = tracer
        super().__init__(**kwargs)

    def record(self, kind: str, t: float, **fields: object) -> dict:
        span_id = self.tracer.begin("obs.flight.record")
        try:
            return super().record(kind, t, **fields)
        finally:
            self.tracer.finish(span_id)
