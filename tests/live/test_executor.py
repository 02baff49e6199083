"""SubprocessExecutor: real children, throttling, and the watchdog.

No pytest-asyncio in the environment, so each test drives its own event
loop with ``asyncio.run``.  Rates are set high (1 wall second = many
market units) to keep real sleeps short.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys

import pytest

from repro.errors import LiveServiceError
from repro.live import executor
from repro.live.clock import WallClock
from repro.live.executor import ExecutionReport, SubprocessExecutor, sleep_argv


def _executor(max_running=2, rate=100.0):
    return SubprocessExecutor(WallClock(rate=rate), rate=rate, max_running=max_running)


def test_clean_exit_reports_ok():
    ex = _executor()
    report = asyncio.run(ex.run(sleep_argv(0.0), timeout_units=None))
    assert report.ok
    assert report.returncode == 0
    assert not report.killed
    assert report.ended_at >= report.started_at
    assert (ex.started, ex.completed, ex.killed) == (1, 1, 0)


def test_nonzero_exit_reports_failure():
    argv = (sys.executable, "-c", "raise SystemExit(3)")
    report = asyncio.run(_executor().run(argv, timeout_units=None))
    assert not report.ok
    assert report.returncode == 3
    assert not report.killed


def test_a_spawn_that_fails_is_a_run_that_failed(tmp_path):
    not_executable = tmp_path / "data.txt"
    not_executable.write_text("not a program\n")
    ex = _executor(max_running=1)

    async def scenario():
        missing = await ex.run(["/nonexistent/binary"], timeout_units=None)
        denied = await ex.run([str(not_executable)], timeout_units=None)
        # the slot and the semaphore came back both times
        return missing, denied, await ex.run(sleep_argv(0.0), timeout_units=None)

    missing, denied, after = asyncio.run(scenario())
    for report in (missing, denied):
        assert not report.ok
        assert report.returncode is None and not report.killed
        assert report.ended_at >= report.started_at
    assert after.ok
    assert ex.running == 0
    assert (ex.started, ex.completed, ex.killed) == (3, 3, 0)


def test_watchdog_kills_overrunning_child():
    ex = _executor(rate=100.0)  # 10 units = 0.1 wall seconds
    argv = (sys.executable, "-c", "import time; time.sleep(30)")
    report = asyncio.run(ex.run(argv, timeout_units=10.0))
    assert report.killed
    assert not report.ok
    assert ex.killed == 1
    # the kill fired near the deadline, not after the full 30s sleep
    assert report.ended_at - report.started_at < 200.0


def test_semaphore_caps_concurrency():
    ex = _executor(max_running=2, rate=100.0)

    async def burst():
        await asyncio.gather(
            *(ex.run(sleep_argv(0.05), timeout_units=None) for _ in range(6))
        )

    asyncio.run(burst())
    assert ex.peak_running == 2
    assert ex.started == ex.completed == 6


def test_kill_all_delivers_signal_to_every_child():
    ex = _executor(max_running=4, rate=100.0)

    async def scenario():
        jobs = [
            asyncio.ensure_future(
                ex.run((sys.executable, "-c", "import time; time.sleep(30)"), None)
            )
            for _ in range(3)
        ]
        while ex.running < 3:  # children still forking
            await asyncio.sleep(0.01)
        assert ex.kill_all() == 3
        return await asyncio.gather(*jobs)

    reports = asyncio.run(scenario())
    # kill_all is signal delivery only — reports show non-zero exits,
    # not `killed` (that flag is the watchdog's)
    assert all(isinstance(r, ExecutionReport) for r in reports)
    assert all(r.returncode != 0 for r in reports)
    assert ex.running == 0


def test_watchdog_tolerates_child_that_exits_before_the_kill(monkeypatch):
    # `true` is shorter than a poll tick and the deadline has passed at
    # the first one, so the watchdog's kill races the child's own exit;
    # when the exit wins, the signal raises ProcessLookupError.  Before
    # the fix about one run in three of these raised out of run().
    monkeypatch.setattr(executor, "POLL_INTERVAL", 0.0002)
    ex = _executor(max_running=1, rate=1000.0)

    async def burst():
        return [await ex.run(["true"], timeout_units=1e-9) for _ in range(200)]

    reports = asyncio.run(burst())
    assert ex.running == 0
    assert ex.started == ex.completed == 200
    for report in reports:
        # settled through the normal exit path: either it exited cleanly
        # or the signal really landed — never the 255 asyncio's watcher
        # invents for a child somebody else reaped
        assert report.returncode in (0, -signal.SIGKILL)
        assert report.killed == (report.returncode != 0)
    assert ex.killed == sum(r.killed for r in reports)


def test_the_watchdog_signal_leaves_an_exited_child_for_the_watcher_to_reap():
    """The exit status of a child that has exited but is not reaped yet
    belongs to asyncio's child watcher.  ``proc.kill()`` is
    ``Popen.send_signal``, which polls first and reaps it; the watcher
    then reports 255 and a clean run beside its deadline is booked as
    failed.  No timing: the child is held as a zombie on purpose."""

    class AsAsyncioHoldsIt:
        """pid, returncode and kill() as ``asyncio.subprocess.Process``
        has them over its ``Popen``."""

        returncode = None

        def __init__(self, popen):
            self.popen, self.pid = popen, popen.pid

        def kill(self):
            self.popen.kill()

    popen = subprocess.Popen(["true"])
    try:
        # blocks until the child has exited and leaves it un-reaped
        os.waitid(os.P_PID, popen.pid, os.WEXITED | os.WNOWAIT)
        # a zombie takes the signal and ignores it: delivered, no effect
        assert SubprocessExecutor._signal_kill(AsAsyncioHoldsIt(popen)) is True
        # still there for the only reaper, with the status it exited with
        assert os.waitpid(popen.pid, 0) == (popen.pid, 0)
    finally:
        popen.returncode = 0  # reaped above, or by the bug: nothing left to wait for


def test_a_signal_that_lands_on_an_exited_child_is_not_a_kill(monkeypatch):
    """The other half of the same race: the child has exited but is not
    reaped yet, so the signal raises nothing and changes nothing.  A clean
    exit must stay a clean exit (the test above has been seen to fail on
    exactly this: ``killed`` with return code 0)."""

    class ExitedUnreaped:
        pid = 4242
        returncode = None

        def __init__(self):
            self.signalled = asyncio.Event()

        async def wait(self):
            await self.signalled.wait()  # reaped only after the watchdog's tick
            self.returncode = 0
            return 0

    child = ExitedUnreaped()

    async def spawn(*argv, **kwargs):
        return child

    def deliver(pid, sig):
        assert (pid, sig) == (child.pid, signal.SIGKILL)
        child.signalled.set()

    monkeypatch.setattr(asyncio, "create_subprocess_exec", spawn)
    monkeypatch.setattr(os, "kill", deliver)
    monkeypatch.setattr(executor, "POLL_INTERVAL", 0.001)
    ex = _executor(max_running=1, rate=1000.0)
    report = asyncio.run(ex.run(["true"], timeout_units=1e-9))
    assert report.ok and report.returncode == 0 and not report.killed
    assert (ex.started, ex.completed, ex.killed, ex.running) == (1, 1, 0, 0)


def test_kill_all_skips_a_child_that_already_exited(monkeypatch):
    class Gone:
        pid = 4242
        returncode = None  # exit not yet observed by the poll loop

    class Settled:
        pid = 4243
        returncode = 0

    def deliver(pid, sig):
        assert pid == Gone.pid  # a child whose exit is known is not signalled
        raise ProcessLookupError

    monkeypatch.setattr(os, "kill", deliver)
    ex = _executor()
    ex._procs.update({Gone(), Settled()})
    assert ex.kill_all() == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_running": 0},
        {"rate": 0.0},
    ],
)
def test_constructor_validation(kwargs):
    defaults = {"max_running": 2, "rate": 100.0}
    defaults.update(kwargs)
    with pytest.raises(LiveServiceError):
        SubprocessExecutor(WallClock(rate=100.0), **defaults)


def test_sleep_argv_is_runnable_and_clamped():
    assert sleep_argv(-5.0)[0] == sys.executable
    report = asyncio.run(_executor().run(sleep_argv(-5.0), timeout_units=None))
    assert report.ok
