"""Counters for everything the reliability subsystem observes.

One :class:`FaultStats` instance is shared by the injector and the
site's crash handling, so a single object summarizes the disruption a
run experienced.  The experiment harness serializes :meth:`summary`
next to the yield metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FaultStats:
    """Aggregate fault/recovery counters for one run."""

    crashes: int = 0  # node crash events injected
    repairs: int = 0  # node repair events completed
    tasks_killed: int = 0  # running tasks killed by a crash
    restarts: int = 0  # killed tasks put back in the queue
    abandoned: int = 0  # killed tasks whose contract was breached
    work_lost: float = 0.0  # node-time of completed work thrown away
    downtime: float = 0.0  # cumulative node-down time (node-time units)
    _down_since: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Downtime bookkeeping (driven by the injector)
    # ------------------------------------------------------------------
    def note_down(self, node_id: int, now: float) -> None:
        self.crashes += 1
        self._down_since[node_id] = now

    def note_up(self, node_id: int, now: float) -> None:
        self.repairs += 1
        since = self._down_since.pop(node_id, None)
        if since is not None:
            self.downtime += now - since

    def close(self, now: float) -> None:
        """Charge downtime for nodes still dead when the run ends."""
        for node_id, since in list(self._down_since.items()):
            self.downtime += now - since
            del self._down_since[node_id]

    # ------------------------------------------------------------------
    def note_kill(self, task, outcome) -> None:
        """A running task died with its node (a site crash listener;
        *outcome* is the restart policy's ``CrashOutcome``)."""
        self.tasks_killed += 1
        self.work_lost += outcome.work_lost
        if outcome.requeued:
            self.restarts += 1
        else:
            self.abandoned += 1

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "crashes": self.crashes,
            "repairs": self.repairs,
            "tasks_killed": self.tasks_killed,
            "restarts": self.restarts,
            "abandoned": self.abandoned,
            "work_lost": self.work_lost,
            "downtime": self.downtime,
        }
