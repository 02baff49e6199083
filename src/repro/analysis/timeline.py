"""Execution timelines recorded from a live site.

A :class:`SiteTimeline` attaches to a
:class:`~repro.site.service.TaskServiceSite` before the run and records
one :class:`ExecutionSegment` per contiguous stretch a task spends on a
node — preempted tasks produce several segments.  From the segments it
derives the per-node occupancy (gantt rows), the queue-length time
series, and busy-node counts over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.site.service import TaskServiceSite
    from repro.tasks.task import Task


@dataclass(frozen=True)
class ExecutionSegment:
    """One contiguous execution of a task on one node."""

    tid: int
    node: int
    start: float
    end: float
    final: bool  # True when the segment ends in completion (not preemption)

    @property
    def length(self) -> float:
        return self.end - self.start


class SiteTimeline:
    """Observer recording the full execution history of one site run.

    Attach *before* feeding tasks::

        site = TaskServiceSite(sim, 4, FirstPrice())
        timeline = SiteTimeline(site)
        ...run...
        print(render_gantt(timeline))
    """

    def __init__(self, site: "TaskServiceSite") -> None:
        self.site = site
        self._initial_nodes = site.processors.count
        self.segments: list[ExecutionSegment] = []
        self._open: dict[int, tuple[list[int], float]] = {}  # tid -> (nodes, start)
        self.queue_samples: list[tuple[float, int]] = []
        self.busy_samples: list[tuple[float, int]] = []
        site.start_listeners.append(self._on_start)
        site.preempt_listeners.append(self._on_preempt)
        site.finish_listeners.append(self._on_finish)

    # ------------------------------------------------------------------
    def _sample(self) -> None:
        now = self.site.clock.now
        self.queue_samples.append((now, self.site.queue_length))
        self.busy_samples.append((now, self.site.running_count))

    def _on_start(self, task: "Task") -> None:
        nodes = self.site.processors.node_ids_of(task)
        self._open[task.tid] = (nodes, self.site.clock.now)
        self._sample()

    def _close_segment(self, task: "Task", final: bool) -> None:
        entry = self._open.pop(task.tid, None)
        if entry is None:
            return  # finished without running (cancelled while queued)
        nodes, start = entry
        # gang-scheduled tasks occupy several nodes: one segment per node
        for node in nodes:
            self.segments.append(
                ExecutionSegment(
                    tid=task.tid,
                    node=node,
                    start=start,
                    end=self.site.clock.now,
                    final=final,
                )
            )

    def _on_preempt(self, task: "Task") -> None:
        self._close_segment(task, final=False)
        self._sample()

    def _on_finish(self, task: "Task") -> None:
        self._close_segment(task, final=(task.state.value == "completed"))
        self._sample()

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Widest node-id range the timeline has seen.

        Elastic sites grow and shrink their pool; segments key on stable
        node ids, so the gantt's row range spans every id ever observed
        (retired nodes keep their rows).
        """
        observed = max((s.node + 1 for s in self.segments), default=0)
        return max(self._initial_nodes, self.site.processors.count, observed)

    @property
    def makespan(self) -> float:
        if not self.segments:
            return 0.0
        return max(s.end for s in self.segments)

    def segments_of(self, tid: int) -> list[ExecutionSegment]:
        return sorted(
            (s for s in self.segments if s.tid == tid), key=lambda s: s.start
        )

    def node_rows(self) -> dict[int, list[ExecutionSegment]]:
        """Segments grouped by node, time-ordered — the gantt rows."""
        rows: dict[int, list[ExecutionSegment]] = {n: [] for n in range(self.node_count)}
        for segment in sorted(self.segments, key=lambda s: (s.node, s.start)):
            rows[segment.node].append(segment)
        return rows

    def verify_no_overlap(self) -> None:
        """Assert no node ever ran two segments at once (test invariant)."""
        for node, row in self.node_rows().items():
            for a, b in zip(row, row[1:]):
                if b.start < a.end - 1e-9:
                    raise SchedulingError(
                        f"node {node}: segment overlap {a} / {b}"
                    )

    def utilization(self) -> float:
        """Busy node-time over total node-time across the makespan."""
        span = self.makespan
        if span <= 0:
            return 0.0
        busy = sum(s.length for s in self.segments)
        return busy / (span * self.node_count)

    def queue_length_stats(self) -> dict:
        """Time-weighted mean and max of the queue length."""
        if len(self.queue_samples) < 2:
            return {"mean": 0.0, "max": 0}
        times = np.array([t for t, _ in self.queue_samples])
        depths = np.array([q for _, q in self.queue_samples])
        widths = np.diff(times)
        horizon = times[-1] - times[0]
        mean = float((depths[:-1] * widths).sum() / horizon) if horizon > 0 else 0.0
        return {"mean": mean, "max": int(depths.max())}

    def preemption_count(self) -> int:
        return sum(1 for s in self.segments if not s.final)
