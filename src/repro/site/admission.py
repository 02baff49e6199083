"""Slack-based admission control (§6, Eq. 7–8).

For each proposed task the site (1) integrates it into the current
candidate schedule according to its heuristic, (2) reads off the task's
expected completion time and yield, and (3) computes the task's *slack* —
"the amount of additional delay (beyond its place in the candidate
schedule) that the task can incur before its reward falls below some
yield threshold":

    slack_i = (PV_i − cost_i) / decay_i                          (Eq. 7)
    cost_i  = Σ_{j behind i} decay_j · runtime_i                 (Eq. 8)

The acceptance policy rejects tasks whose slack falls below a
configurable *slack threshold* (180 in Fig. 6; swept in Fig. 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import AdmissionError
from repro.scheduling.base import effective_decay
from repro.scheduling.candidate import project_lone_start, project_next_start

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.site.service import TaskServiceSite
    from repro.tasks.task import Task


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Everything the slack evaluation learned about a proposed task.

    The market layer reuses this to fill in server bids (expected
    completion and price); the site uses only ``accept``.
    """

    accept: bool
    slack: float
    expected_start: float
    expected_completion: float
    expected_delay: float
    expected_yield: float
    present_value: float
    cost: float


class SlackAdmission:
    """The paper's acceptance heuristic.

    Parameters
    ----------
    threshold:
        Minimum slack (time units) a task must have to be accepted.
        "Higher load requires a more risk-averse admission control
        policy that applies a higher slack threshold" (§6).
    discount_rate:
        Present-value discount rate used for the task's expected gain.
    slack_inflation:
        Failure-aware risk margin (``repro.faults``): the required slack
        grows by ``slack_inflation`` time units per unit of the task's
        believed RPT.  Longer tasks expose the site to more crash risk —
        a crash forfeits the work done and delays everything queued
        behind the re-run — so an unreliable site should demand extra
        slack in proportion to that exposure.  0 (the default) is the
        paper's fault-free rule, bit for bit.

    The policy publishes nothing itself: the engine hands each decision
    to its observer, which reads the evaluation metrics off it.
    """

    def __init__(
        self,
        threshold: float = 180.0,
        discount_rate: float = 0.01,
        slack_inflation: float = 0.0,
    ) -> None:
        if math.isnan(threshold):
            raise AdmissionError("slack threshold must not be NaN")
        if not discount_rate >= 0:
            raise AdmissionError(f"discount_rate must be >= 0, got {discount_rate!r}")
        if not slack_inflation >= 0:
            raise AdmissionError(
                f"slack_inflation must be >= 0, got {slack_inflation!r}"
            )
        self.threshold = float(threshold)
        self.discount_rate = float(discount_rate)
        self.slack_inflation = float(slack_inflation)

    def evaluate(self, site: "TaskServiceSite", task: "Task") -> AdmissionDecision:
        """Probe the candidate schedule with *task* added; no state changes."""
        if task.demand > 1:
            raise AdmissionError(
                "slack admission projects single-node candidate schedules; "
                "multi-node tasks are only supported without admission control"
            )
        # the site's clock abstracts over sim vs live mode (repro.sim.clock)
        now = site.clock.now
        free_times = site.processors.free_times(now)
        # everything below works on declared quantities — the site cannot
        # see true runtimes when they are misestimated
        if site.pool:
            expected_start, cost = self._place(site, task, now, free_times)
        else:
            # nothing to rank against: the candidate is the whole
            # schedule, so it takes the earliest-free node and displaces
            # nobody (the empty Eq. 8 sum)
            expected_start = project_lone_start(task.estimated_remaining, free_times)
            cost = 0.0
        return self._decide(task, expected_start, cost)

    @staticmethod
    def _place(
        site: "TaskServiceSite", task: "Task", now: float, free_times: list[float]
    ) -> tuple[float, float]:
        """Where *task* starts in the candidate schedule and what it displaces."""
        key = site.heuristic.affine_key
        if key is not None:
            rows = site.pool.affine_probe(task, key)
            if rows is not None:
                return _place_shallow(rows, key[0], task.estimate, now, free_times)
        cols = site.pool.probe(task)
        last = len(cols) - 1  # the candidate's row
        scores = site.heuristic.scores(cols, now)
        # one stable descending sort feeds everything: the candidate's
        # rank (it is the last row, so every tie sorts ahead of it, NaN
        # rows — which sort last — included), the projection (everything
        # ahead, in sequence) and the Eq. 8 sum (everything behind)
        order = np.argsort(-scores, kind="stable")
        position = order.tolist().index(last)
        # only the candidate's own start is consumed, so project just
        # that slot (early-stopped; bit-identical to the full projection)
        expected_start = project_next_start(cols.remaining[order], free_times, position)
        if position == last:
            return expected_start, 0.0  # nobody behind: the empty Eq. 8 sum
        # Eq. 8: the new task pushes back everything ordered behind it by
        # (roughly) its own runtime; expired tasks cost nothing (d_eff=0).
        behind = effective_decay(cols, now)[order[position + 1 :]]
        return expected_start, float(task.estimate * behind.sum())

    def _decide(
        self, task: "Task", expected_start: float, cost: float
    ) -> AdmissionDecision:
        """Eq. 7 on a projected start and an Eq. 8 cost: the verdict."""
        expected_completion = expected_start + task.estimated_remaining
        expected_delay = max(0.0, expected_completion - task.arrival - task.estimate)
        expected_yield = task.vf.yield_at(expected_delay)
        pv = expected_yield / (1.0 + self.discount_rate * task.estimated_remaining)

        if task.decay > 0:
            slack = (pv - cost) / task.decay
        else:
            # a task that never decays has unlimited slack: accepting it
            # can never trigger its own penalty
            slack = math.inf if pv - cost >= 0 else -math.inf

        required = self.threshold + self.slack_inflation * task.estimated_remaining
        return AdmissionDecision(
            accept=bool(slack >= required),
            slack=slack,
            expected_start=expected_start,
            expected_completion=expected_completion,
            expected_delay=expected_delay,
            expected_yield=expected_yield,
            present_value=pv,
            cost=cost,
        )

    def __repr__(self) -> str:
        inflation = (
            f" inflation={self.slack_inflation:g}" if self.slack_inflation else ""
        )
        return (
            f"<SlackAdmission threshold={self.threshold:g} "
            f"r={self.discount_rate:g}{inflation}>"
        )


def _place_shallow(
    rows: list[list[float]], alpha: float, estimate: float, now: float, free_times: list[float]
) -> tuple[float, float]:
    """``SlackAdmission._place`` on a shallow never-expires probe's rows
    (:meth:`~repro.scheduling.pool.PendingPool.affine_probe`): the same
    floats, bit for bit, from a dozen Python operations instead of ~20
    NumPy calls on a handful of elements.

    Each step is the vector path's own float operations in its order:
    :func:`~repro.scheduling.base.affine_scores` (whose ``np.maximum``
    clamp keeps a NaN lag), the stable descending sort
    with NaN last (every tie, ``±0.0`` included, ahead of the candidate),
    the projection, and Eq. 8.  Both sums run left to right, which is
    NumPy's association below ``SCALAR_PROBE_ROWS`` rows — as explicit
    loops, since the builtin ``sum`` compensates from Python 3.12 on.
    """
    late, head, slope, cost, remaining, decay = rows
    scores = []
    for lo, h, s in zip(late, head, slope):
        lag = now - lo
        scores.append(h - (0.0 if lag <= 0.0 else lag) * s)
    if alpha != 1.0:
        total = 0.0
        for d in decay:
            total += d
        scores = [x - c * total for x, c in zip(scores, cost)]
    last = len(scores) - 1
    if any(map(math.isnan, scores)):
        nan = [i for i, x in enumerate(scores) if x != x]
        ranked = [i for i, x in enumerate(scores) if x == x]
        order = sorted(ranked, key=scores.__getitem__, reverse=True) + nan
    else:
        order = sorted(range(last + 1), key=scores.__getitem__, reverse=True)
    position = order.index(last)
    expected_start = project_next_start([remaining[i] for i in order], free_times, position)
    if position == last:
        return expected_start, 0.0
    behind = 0.0
    for i in order[position + 1 :]:
        behind += decay[i]
    return expected_start, estimate * behind
