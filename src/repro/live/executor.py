"""Real subprocess execution for live mode.

The simulator "runs" a task by scheduling a completion event; the live
executor runs it as an actual child process.  Three responsibilities:

* **Throttle** — an :class:`asyncio.Semaphore` caps concurrently running
  children at the site's slot count.  The site engine only starts a task
  when its :class:`~repro.site.processors.ProcessorPool` shows a free
  node, so in normal operation the semaphore never blocks; it is the
  hard backstop that no scheduling bug can fork-bomb the host.
* **Status polling** — the executor wakes every ``poll_interval`` wall
  seconds to check the child and the watchdog deadline, rather than
  blocking indefinitely on ``wait()``.
* **Timeout kill** — a child that outlives its deadline (market units,
  measured on the live clock) is killed; the report marks it so the
  site settles the contract as an abandonment instead of a completion.

Durations cross the units/seconds boundary exactly once, here: the
market speaks units, the kernel speaks seconds, and ``rate`` (units per
second) converts at dispatch.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import LiveServiceError
from repro.sim.clock import Clock

#: Wall seconds between status polls of a running child (the watchdog's
#: resolution) and between idle checks of a draining service.
POLL_INTERVAL = 0.05


def sleep_argv(seconds: float) -> tuple[str, ...]:
    """Default task command: sleep for the declared runtime.

    A service whose contracts price *duration* owes the client nothing
    but elapsed time; a real deployment would substitute the client's
    workload command via the bid's ``argv``.
    """
    return (sys.executable, "-c", f"import time; time.sleep({max(0.0, seconds)!r})")


@dataclass(frozen=True)
class ExecutionReport:
    """What happened to one subprocess run."""

    returncode: Optional[int]
    killed: bool
    started_at: float  # market units
    ended_at: float  # market units

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.killed


class SubprocessExecutor:
    """Runs task commands as child processes under a concurrency cap."""

    def __init__(
        self,
        clock: Clock,
        rate: float,
        max_running: int,
        poll_interval: float = POLL_INTERVAL,
    ) -> None:
        if max_running < 1:
            raise LiveServiceError(f"max_running must be >= 1, got {max_running!r}")
        if not rate > 0:
            raise LiveServiceError(f"rate must be > 0, got {rate!r}")
        if not poll_interval > 0:
            raise LiveServiceError(
                f"poll_interval must be > 0, got {poll_interval!r}"
            )
        self.clock = clock
        self.rate = float(rate)
        self.max_running = max_running
        self.poll_interval = float(poll_interval)
        self._gate = asyncio.Semaphore(max_running)
        self._procs: set[asyncio.subprocess.Process] = set()
        self.running = 0
        self.peak_running = 0
        self.started = 0
        self.completed = 0
        self.killed = 0

    async def run(
        self,
        argv: Sequence[str],
        timeout_units: Optional[float],
        on_spawn: Optional[Callable[[int], None]] = None,
    ) -> ExecutionReport:
        """Run *argv* to completion; kill it past *timeout_units*.

        ``on_spawn`` is called with the child's PID immediately after
        the fork — before any polling — so the caller can journal the
        spawn durably while the child is guaranteed still alive.
        """
        async with self._gate:
            self.running += 1
            self.peak_running = max(self.peak_running, self.running)
            self.started += 1
            started_at = self.clock.now
            # journaling is the caller's job via on_spawn below: the spawn
            # intent needs the child's PID, which only exists post-fork
            try:
                proc = await asyncio.create_subprocess_exec(  # repro: noqa WAL001  # PID known only after fork; on_spawn journals it immediately
                    *argv,
                    stdout=asyncio.subprocess.DEVNULL,
                    stderr=asyncio.subprocess.DEVNULL,
                )
            except OSError:
                # a command that cannot be spawned (no such file, not
                # executable) is a run that failed, not a service error:
                # report it as one, with no return code, so the task
                # takes the restart-budget path and its contract settles
                self.running -= 1
                self.completed += 1
                return ExecutionReport(
                    returncode=None,
                    killed=False,
                    started_at=started_at,
                    ended_at=self.clock.now,
                )
            self._procs.add(proc)
            if on_spawn is not None:
                on_spawn(proc.pid)
            signalled = False
            try:
                waiter = asyncio.ensure_future(proc.wait())
                try:
                    while True:
                        try:
                            await asyncio.wait_for(
                                asyncio.shield(waiter), timeout=self.poll_interval
                            )
                            break  # child exited
                        except asyncio.TimeoutError:
                            pass  # poll tick: check the watchdog below
                        if (
                            not signalled
                            and timeout_units is not None
                            and self.clock.now - started_at >= timeout_units
                        ):
                            signalled = self._signal_kill(proc)
                            # if not, it exited on its own: the next pass
                            # of the loop reaps it as a normal exit
                finally:
                    if not waiter.done():
                        waiter.cancel()
            finally:
                self._procs.discard(proc)
                self.running -= 1
            self.completed += 1
            # the signal can also land on a child that has exited but is
            # not reaped yet, where it changes nothing: it was a kill only
            # if the child died of it
            killed = signalled and proc.returncode == -signal.SIGKILL
            self.killed += killed
            return ExecutionReport(
                returncode=proc.returncode,
                killed=killed,
                started_at=started_at,
                ended_at=self.clock.now,
            )

    def kill_all(self) -> int:
        """Kill every live child (drain-grace expiry); returns the count.

        The polling loops observe the exits and settle each task through
        the normal failure path — this only delivers the signal.
        """
        return sum(self._signal_kill(proc) for proc in self._procs)

    @staticmethod
    def _signal_kill(proc: asyncio.subprocess.Process) -> bool:
        """SIGKILL *proc*; False when it had already exited.

        The signal goes to the pid directly, not through ``proc.kill()``:
        that is ``Popen.send_signal``, which ``poll()``s first and so
        *reaps* a child that has exited but that asyncio's child watcher
        has not reaped yet — the watcher then finds no child, reports
        return code 255, and a run that exited 0 beside its deadline is
        booked as failed.  The watcher stays the only reaper.

        The pid cannot name another process: an exited child keeps its
        pid (as a zombie) until it is reaped, only the watcher reaps, and
        the watcher hands the exit to this loop, which sets
        ``returncode`` — checked first — before this runs again.  In the
        instant between the watcher's ``waitpid`` and that hand-over the
        pid is free but not reusable in practice (Linux allocates pids
        upwards, so reuse takes a wrap of the whole pid space), and the
        signal raises ``ProcessLookupError``: an exit, not a kill, which
        the waiter that is already done settles.
        """
        if proc.returncode is not None:
            return False
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"<SubprocessExecutor running={self.running}/{self.max_running} "
            f"started={self.started} killed={self.killed}>"
        )
