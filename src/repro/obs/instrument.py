"""The observability facade and ambient attachment context.

One :class:`Observability` object bundles the two instruments of the
telemetry layer — the metrics registry and the lifecycle span tracker —
behind the hook methods the substrate calls: the site engine reports
task transitions, the market layer reports negotiation phases, the fault
injector reports node state flips, and the driver brackets each
simulation run.  The hooks are the engine's only telemetry channel and
the span list is the only store of what a site did; everything else
(:class:`repro.analysis.SiteTimeline`, the Chrome export) is a view of it.

Attachment is ambient: experiment harnesses sweep dozens of
``simulate_site`` calls through code that never mentions telemetry, so
``with observing(obs): ...`` puts *obs* where
:func:`~repro.site.driver.simulate_site` finds it.  The substrate holds
``None`` by default and guards every publish with one ``is not None``
check — the disabled path costs nothing and is bit-identical by
construction (no instrument ever touches the clock, queue, or RNG).
"""

from __future__ import annotations

import contextlib
import math
from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, SpanTracker

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.site.admission import AdmissionDecision
    from repro.tasks.task import Task


class Observability:
    """Bundle of instruments plus the hook surface the substrate calls.

    Parameters
    ----------
    spans:
        ``True`` (default) builds lifecycle span trees; ``False`` skips
        span bookkeeping entirely (a long-lived server asked for no
        trace would otherwise hold every span until shutdown).

    ``registry`` is the :class:`~repro.obs.registry.MetricsRegistry` the
    hooks publish into, one per observer.
    """

    def __init__(self, spans: bool = True) -> None:
        self.registry = MetricsRegistry()
        self.spans = SpanTracker() if spans else None
        #: open root/segment spans per live task id (current run only)
        self._roots: dict[int, Span] = {}
        self._segments: dict[int, Span] = {}
        #: open negotiation spans by negotiation id
        self._negotiations: dict[int, Span] = {}
        self.run_index = -1
        self.runs: list[dict] = []
        self._run_open = False

    # ------------------------------------------------------------------
    # Run bracketing (one run == one simulate_site replication)
    # ------------------------------------------------------------------
    def begin_run(self, label: str = "") -> int:
        self.run_index += 1
        self._run_open = True
        self._roots.clear()
        self._segments.clear()
        self._negotiations.clear()
        self.registry.counter("runs.started").inc()
        if label:
            self.runs.append({"run": self.run_index, "label": label})
        else:
            self.runs.append({"run": self.run_index})
        return self.run_index

    def end_run(self, now: float, **summary) -> None:
        """Close the run: terminal-close any still-open spans, fold summary."""
        if self.spans is not None:
            for _tid, segment in list(self._segments.items()):
                self.spans.close(segment, now, truncated=True)
            for _tid, root in list(self._roots.items()):
                self.spans.close(root, now, truncated=True)
        self._roots.clear()
        self._segments.clear()
        self._negotiations.clear()
        self.registry.counter("runs.finished").inc()
        if "events" in summary:
            self.registry.counter("kernel.events").inc(summary["events"])
        if self._run_open and self.runs:
            self.runs[-1].update(summary)
        self._run_open = False

    def _mark(self, span: Span) -> Span:
        """Stamp *span* with the run it belongs to (0 outside any run)."""
        if self.run_index >= 0:
            span.run = self.run_index
        return span

    # ------------------------------------------------------------------
    # Site lifecycle hooks
    # ------------------------------------------------------------------
    def task_submitted(self, task: "Task", now: float) -> None:
        self.registry.counter("tasks.submitted").inc()
        if self.spans is None:
            return
        root = self._mark(
            self.spans.open(
                f"task:{task.tid}",
                "task",
                now,
                task_id=task.tid,
                track=f"task:{task.tid}",
                arrival=task.arrival,
                runtime=task.runtime,
                value=task.value,
                decay=task.decay,
            )
        )
        self._roots[task.tid] = root
        self._mark(self.spans.instant("submitted", "task", now, parent=root))

    def _evaluated(self, decision: "AdmissionDecision") -> None:
        """What one admission evaluation learned, off its decision."""
        self.registry.counter("admission.evaluations").inc()
        if math.isfinite(decision.slack):
            self.registry.histogram("admission.evaluated_slack").observe(decision.slack)
        self.registry.histogram("admission.present_value").observe(decision.present_value)
        self.registry.histogram("admission.displacement_cost").observe(decision.cost)

    def task_admitted(self, task: "Task", decision: "Optional[AdmissionDecision]", now: float) -> None:
        self.registry.counter("tasks.accepted").inc()
        if decision is not None:
            self._evaluated(decision)
            if math.isfinite(decision.slack):
                self.registry.histogram("admission.slack").observe(decision.slack)
            self.registry.histogram("admission.expected_yield").observe(
                decision.expected_yield
            )
        if self.spans is None:
            return
        root = self._roots.get(task.tid)
        if root is None:
            return
        args = {}
        if decision is not None:
            args = {"slack": decision.slack, "expected_start": decision.expected_start}
        self._segments[task.tid] = self._mark(
            self.spans.open("queued", "task", now, parent=root, **args)
        )

    def task_rejected(self, task: "Task", decision: "AdmissionDecision", now: float) -> None:
        self.registry.counter("tasks.rejected").inc()
        self._evaluated(decision)
        if math.isfinite(decision.slack):
            self.registry.histogram("admission.rejected_slack").observe(decision.slack)
        if self.spans is None:
            return
        root = self._roots.pop(task.tid, None)
        if root is None:
            return
        self._mark(self.spans.instant("rejected", "task", now, parent=root, slack=decision.slack))
        self.spans.close(root, now, outcome="rejected")

    def task_started(self, task: "Task", now: float, site_id: str, nodes: list[int]) -> None:
        self.registry.counter("tasks.dispatched").inc()
        self.registry.histogram("queue.wait").observe(now - task.arrival)
        if self.spans is None:
            return
        root = self._roots.get(task.tid)
        if root is None:
            return
        segment = self._segments.pop(task.tid, None)
        if segment is not None:
            self.spans.close(segment, now)
        self._segments[task.tid] = self._mark(
            self.spans.open(
                "running", "task", now, parent=root,
                remaining=task.remaining, site=site_id, nodes=nodes,
            )
        )

    def task_preempted(self, task: "Task", now: float) -> None:
        self.registry.counter("tasks.preemptions").inc()
        self._run_cut_short(task, now, "preempted", True, preemptions=task.preemptions)

    def task_restarted(self, task: "Task", now: float, requeued: bool) -> None:
        self.registry.counter("tasks.crashed").inc()
        if requeued:
            self.registry.counter("tasks.restarts").inc()
        self._run_cut_short(
            task, now, "crashed", requeued, requeued=requeued, restarts=task.restarts
        )

    def _run_cut_short(
        self, task: "Task", now: float, why: str, waits_again: bool, **args
    ) -> None:
        """A run ended short of completion: mark the instant, close the
        ``running`` span as ``ended_by=why`` (what tells a timeline the
        segment is not final) and, when the task goes back to the queue,
        open its next wait."""
        if self.spans is None:
            return
        root = self._roots.get(task.tid)
        if root is not None:
            self._mark(self.spans.instant(why, "task", now, parent=root, **args))
        segment = self._segments.pop(task.tid, None)
        if segment is not None:
            self.spans.close(segment, now, ended_by=why)
        if waits_again and root is not None:
            self._segments[task.tid] = self._mark(
                self.spans.open("queued", "task", now, parent=root, after=why)
            )

    def _terminal(self, task: "Task", now: float, outcome: str, **args) -> None:
        if self.spans is None:
            return
        segment = self._segments.pop(task.tid, None)
        if segment is not None:
            self.spans.close(segment, now)
        root = self._roots.pop(task.tid, None)
        if root is None:
            return
        self._mark(self.spans.instant(outcome, "task", now, parent=root, **args))
        self.spans.close(root, now, outcome=outcome)

    def task_completed(self, task: "Task", now: float) -> None:
        self.registry.counter("tasks.completed").inc()
        self.registry.histogram("tasks.realized_yield").observe(task.realized_yield)
        self.registry.histogram("tasks.delay").observe(task.delay_if_completed_at(now))
        if task.preemptions:
            self.registry.histogram("tasks.preemptions_per_task").observe(task.preemptions)
        self._terminal(task, now, "completed", realized_yield=task.realized_yield)

    def task_aborted(self, task: "Task", now: float) -> None:
        """Expired-task discard (bounded penalties, value at the floor)."""
        self.registry.counter("tasks.aborted").inc()
        self._terminal(task, now, "aborted", realized_yield=task.realized_yield)

    def task_breached(self, task: "Task", now: float, penalty: float) -> None:
        """Contract breach: a crash-killed task was abandoned."""
        self.registry.counter("tasks.breached").inc()
        self.registry.histogram("tasks.breach_penalty").observe(penalty)
        self._terminal(task, now, "breached", penalty=penalty)

    def queue_depth(self, site_id: str, depth: int, running: int, now: float) -> None:
        """One site's level after a scheduling pass: a series per site, so
        the sites of a market never write each other's gauge."""
        self.registry.time_weighted(f"site.queue_depth.{site_id}").observe(depth, now)
        self.registry.time_weighted(f"site.busy_nodes.{site_id}").observe(running, now)

    # ------------------------------------------------------------------
    # Market hooks
    # ------------------------------------------------------------------
    def negotiation_started(self, negotiation_id: int, now: float, task_id: Optional[int] = None) -> None:
        self.registry.counter("market.negotiations").inc()
        if self.spans is None:
            return
        span = self._mark(
            self.spans.open(
                f"negotiation:{negotiation_id}",
                "market",
                now,
                task_id=task_id,
                track=f"negotiation:{negotiation_id}",
            )
        )
        self._negotiations[negotiation_id] = span

    def negotiation_quoted(self, negotiation_id: int, site_id: str, declined: bool, now: float) -> None:
        self.registry.counter("market.quotes.declined" if declined else "market.quotes").inc()
        if self.spans is None:
            return
        span = self._negotiations.get(negotiation_id)
        if span is not None:
            self._mark(
                self.spans.instant(
                    "declined" if declined else "quoted", "market", now,
                    parent=span, site=site_id,
                )
            )

    def negotiation_finished(
        self, negotiation_id: int, now: float, contracted: bool,
        task_id: Optional[int] = None, site_id: Optional[str] = None,
    ) -> None:
        self.registry.counter(
            "market.contracted" if contracted else "market.failed"
        ).inc()
        if self.spans is None:
            return
        span = self._negotiations.pop(negotiation_id, None)
        if span is None:
            return
        if contracted and task_id is not None:
            # cross the market/site boundary: the award has submitted the
            # task, so the negotiation hangs under its root
            span.task_id = task_id
            root = self._roots.get(task_id)
            if root is not None:
                span.parent_id = root.span_id
        outcome = "contracted" if contracted else "failed"
        args = {"outcome": outcome}
        if site_id is not None:
            args["site"] = site_id
        self.spans.close(span, now, **args)

    # ------------------------------------------------------------------
    # Resilience hooks
    # ------------------------------------------------------------------
    def breaker_transition(self, site_id: str, old: str, new: str, now: float) -> None:
        self.registry.counter(f"resilience.breaker.{new}").inc()
        if new == "open":
            self.registry.counter("resilience.breaker_opens").inc()
        if self.spans is not None:
            self._mark(
                self.spans.instant(
                    f"breaker:{new}", "resilience", now,
                    track=f"breaker:{site_id}", site=site_id, was=old,
                )
            )

    def site_health(self, site_id: str, score: float, now: float) -> None:
        self.registry.time_weighted(f"resilience.health.{site_id}").observe(score, now)

    def failover_started(self, root_bid_id: int, attempt: int, now: float) -> None:
        self.registry.counter("resilience.failovers").inc()
        if self.spans is not None:
            self._mark(
                self.spans.instant(
                    "failover", "resilience", now,
                    track=f"failover:{root_bid_id}", attempt=attempt,
                )
            )

    def failover_finished(
        self, root_bid_id: int, contracted: bool, site_id: Optional[str], now: float
    ) -> None:
        self.registry.counter(
            "resilience.failovers_contracted" if contracted
            else "resilience.failovers_failed"
        ).inc()
        if self.spans is not None:
            args = {"contracted": contracted}
            if site_id is not None:
                args["site"] = site_id
            self._mark(
                self.spans.instant(
                    "failover-done", "resilience", now,
                    track=f"failover:{root_bid_id}", **args,
                )
            )

    def task_recovered(self, value: float, now: float) -> None:
        """A failover re-run settled by completion: value clawed back."""
        self.registry.counter("resilience.recovered").inc()
        self.registry.histogram("resilience.recovered_value").observe(value)

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def node_crashed(self, node_id: int, now: float, down_count: int) -> None:
        self.registry.counter("faults.crashes").inc()
        self.registry.time_weighted("faults.nodes_down").observe(down_count, now)
        if self.spans is not None:
            self._mark(
                self.spans.instant("crash", "fault", now, track=f"node:{node_id}")
            )

    def node_repaired(self, node_id: int, now: float, down_count: int) -> None:
        self.registry.counter("faults.repairs").inc()
        self.registry.time_weighted("faults.nodes_down").observe(down_count, now)
        if self.spans is not None:
            self._mark(
                self.spans.instant("repair", "fault", now, track=f"node:{node_id}")
            )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything the metrics JSON export carries."""
        out: dict = {"metrics": self.registry.snapshot(), "runs": self.runs}
        if self.spans is not None:
            out["spans"] = {
                "finished": len(self.spans),
                "open": self.spans.open_count,
                "dropped": self.spans.dropped,
            }
        return out

    def __repr__(self) -> str:
        spans = len(self.spans) if self.spans is not None else "off"
        return (
            f"<Observability metrics={len(self.registry)} spans={spans} "
            f"runs={self.run_index + 1}>"
        )


# ----------------------------------------------------------------------
# Ambient attachment
# ----------------------------------------------------------------------

_ACTIVE: list[Observability] = []


def current() -> Optional[Observability]:
    """The innermost ambient observability, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextlib.contextmanager
def observing(obs: Optional[Observability]) -> Iterator[Optional[Observability]]:
    """Make *obs* ambient for the block (``None`` is a transparent no-op)."""
    if obs is None:
        yield None
        return
    _ACTIVE.append(obs)
    try:
        yield obs
    finally:
        _ACTIVE.pop()
