"""Live-service test configuration: nothing blocks a running event loop.

An autouse guard wraps every call in :data:`BLOCKING_CALLS`.  Such a
call made on a thread whose asyncio loop is running stalls every client
of that loop, so it fails the test, wherever it came from: a coroutine,
a sync helper the coroutine calls, or a listener the site engine calls
back.  Two stalls are the operator's explicit choice and pass: a
:class:`~repro.obs.flight.JournalSink` under ``fsync="always"`` (the
record is on disk before the caller proceeds) and
:meth:`~repro.obs.flight.JournalSink.close` (the final sync at
shutdown).  An interval-policy sync belongs on the thread pool
(``JournalSink.set_offload``), where no loop runs.
"""

import asyncio
import importlib
import sys
import traceback

import pytest

from repro.obs.flight import JournalSink

#: Calls that block the calling thread.  ``subprocess.Popen`` itself is
#: not one (fork+exec returns promptly); its ``wait``/``communicate`` are.
BLOCKING_CALLS = (
    "os.fsync",
    "os.fdatasync",
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen.wait",
    "subprocess.Popen.communicate",
    "socket.create_connection",
    "urllib.request.urlopen",
)


def _owner(dotted: str):
    """``(object, attribute)`` that *dotted* names, module or class."""
    path, _, attr = dotted.rpartition(".")
    try:
        return importlib.import_module(path), attr
    except ModuleNotFoundError:  # a method: subprocess.Popen.wait
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls), attr


def _sanctioned(frame) -> bool:
    """Whether a sink the operator told to block is on the stack."""
    while frame is not None:
        sink = frame.f_locals.get("self")
        if isinstance(sink, JournalSink) and (
            sink.fsync == "always" or frame.f_code is JournalSink.close.__code__
        ):
            return True
        frame = frame.f_back
    return False


@pytest.fixture(autouse=True)
def no_blocking_on_the_loop(monkeypatch):
    stalls: list[str] = []

    def guard(name, call):
        def guarded(*args, **kwargs):
            caller = sys._getframe(1)
            if asyncio.events._get_running_loop() is not None and not _sanctioned(caller):
                stack = "".join(traceback.format_stack(caller, limit=6))
                stalls.append(f"{name}() on a running event loop, from:\n{stack}")
            return call(*args, **kwargs)

        return guarded

    for name in BLOCKING_CALLS:
        owner, attr = _owner(name)
        monkeypatch.setattr(owner, attr, guard(name, getattr(owner, attr)))
    yield
    if stalls:
        pytest.fail("\n".join(stalls), pytrace=False)
