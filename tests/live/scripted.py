"""A scripted executor: runs end when the test says so.

The engine's execution seam (``launch``/``cancel``) plus the two things
``LiveService`` asks of a site's executor (``kill_all``,
``peak_running``), with no subprocess, no sleep and no event loop — so a
service built on it runs synchronously, and a run that is never ended
stands in for a child that was still alive when the service crashed.
"""

from __future__ import annotations

from repro.live.service import LiveService


class ScriptedExecutor:
    def __init__(self) -> None:
        self.running: dict[int, tuple] = {}  # tid -> (task, on_exit), launch order
        self.launched: list = []  # every launch, relaunches included
        self.peak_running = 0

    def launch(self, task, now, on_exit):
        self.launched.append(task)
        self.running[task.tid] = (task, on_exit)
        self.peak_running = max(self.peak_running, len(self.running))
        return task.tid

    def cancel(self, handle) -> None:
        del self.running[handle]

    def end(self, task, ok: bool = True) -> None:
        """End *task*'s run: it exited cleanly, or (``ok=False``) failed."""
        _, on_exit = self.running.pop(task.tid)
        on_exit(task, ok=ok)

    def kill_all(self) -> int:
        """Every run alive right now fails, synchronously."""
        victims = [task for task, _ in self.running.values()]
        for task in victims:
            self.end(task, ok=False)
        return len(victims)


def scripted_service(config, **kwargs) -> tuple[LiveService, list[ScriptedExecutor]]:
    """A ``LiveService`` whose sites run on scripted executors (site order)."""
    executors: list[ScriptedExecutor] = []

    def make(spec) -> ScriptedExecutor:
        executors.append(ScriptedExecutor())
        return executors[-1]

    return LiveService(config, executor=make, **kwargs), executors
