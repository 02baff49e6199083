"""Execution timelines: one site's ``running`` spans, read as segments.

A :class:`SiteTimeline` is a view of the span list an attached
:class:`~repro.obs.instrument.Observability` kept for a site: every
finished ``running`` span becomes one :class:`ExecutionSegment` per node
it held — preempted and crash-killed tasks produce several.  From the
segments it derives the per-node occupancy (gantt rows), utilization and
the preemption count; queue depth and busy nodes over time are the
observer's ``site.queue_depth.<site_id>`` / ``site.busy_nodes.<site_id>``
gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import SchedulingError
from repro.obs.spans import Span


@dataclass(frozen=True)
class ExecutionSegment:
    """One contiguous execution of a task on one node."""

    tid: int
    node: int
    start: float
    end: float
    #: what cut the run short — ``"preempted"``, ``"crashed"`` or
    #: ``"truncated"`` (still running when the observed run was closed);
    #: ``None`` when it ended in completion
    ended_by: Optional[str] = None

    @property
    def final(self) -> bool:
        """True when the segment ends in completion."""
        return self.ended_by is None

    @property
    def length(self) -> float:
        return self.end - self.start


class SiteTimeline:
    """The execution history of one site run, built from its spans.

    Run the site under an observer that keeps spans, then read them::

        obs = Observability()
        site = TaskServiceSite(sim, 4, FirstPrice(), obs=obs)
        ...run...
        timeline = SiteTimeline(obs.spans.finished, nodes=site.processors.count)
        print(render_gantt(timeline))

    Parameters
    ----------
    spans:
        Finished spans, typically ``obs.spans.finished``; only the
        ``running`` ones are read.  A run still on its node has no
        finished span yet and so no segment.
    nodes:
        The site's node count.  A node that never ran anything is not in
        the stream, so this is what gives it a (blank) gantt row and its
        share of the utilization denominator.
    site_id, run:
        Which site's spans and which replication (``span.run``) to read,
        when the observer watched several — the sites of a market, a
        sweep of ``simulate_site`` calls.  Node ids and simulated time
        restart per site and per run, so a timeline is one of each:
        leaving either out is fine when the spans hold only one, and an
        error when they hold more.
    """

    def __init__(
        self,
        spans: Iterable[Span],
        nodes: int = 0,
        site_id: Optional[str] = None,
        run: Optional[int] = None,
    ) -> None:
        self.nodes = nodes
        self.segments: list[ExecutionSegment] = []
        site_runs: set[tuple[str, int]] = set()
        for span in spans:
            if span.name != "running" or span.end is None or span.task_id is None:
                continue
            if site_id is not None and span.args["site"] != site_id:
                continue
            if run is not None and span.run != run:
                continue
            site_runs.add((span.args["site"], span.run))
            ended_by = span.args.get("ended_by")
            if ended_by is None and span.args.get("truncated"):
                ended_by = "truncated"
            # gang-scheduled tasks occupy several nodes: one segment per node
            for node in span.args["nodes"]:
                self.segments.append(
                    ExecutionSegment(span.task_id, node, span.start, span.end, ended_by)
                )
        if len(site_runs) > 1:
            raise ValueError(
                "one timeline is one site in one run; these spans hold "
                f"{sorted(site_runs)} as (site, run) - pick with site_id= and run="
            )

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Widest node-id range the timeline covers.

        The site's size, or more where a run held a higher node id:
        elastic sites grow and shrink their pool and segments key on
        stable node ids, so the gantt's row range spans every id ever
        observed (retired nodes keep their rows).
        """
        return max(self.nodes, max((s.node + 1 for s in self.segments), default=0))

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

    def preemption_count(self) -> int:
        """Runs a preemption cut short (a gang's run counts once, not per node)."""
        return len(
            {(s.tid, s.start) for s in self.segments if s.ended_by == "preempted"}
        )
