"""``async def`` code on the event kernel: one awaitable, one driver.

:class:`Sleep` is the only thing a kernel-hosted coroutine can wait on:
its ``__await__`` yields the sleep object itself up the ``await`` chain
to the :class:`Coroutine` driving it, which schedules exactly one event
— essential, or ``daemon`` — and resumes the coroutine when it fires.
Host-agnostic code never names either class: it awaits
``clock.sleep(delay)``, which is a :class:`Sleep` on a
:class:`~repro.sim.clock.SimClock` and an ``asyncio.sleep`` on the wall
clock, so the same coroutine runs on both hosts.

Example
-------
>>> from repro.sim import Coroutine, Simulator, Sleep
>>> sim = Simulator()
>>> log = []
>>> async def worker():
...     log.append(("start", sim.now))
...     await Sleep(3.0)
...     log.append(("done", sim.now))
>>> _ = Coroutine(sim, worker())
>>> sim.run()
>>> log
[('start', 0.0), ('done', 3.0)]
"""

from __future__ import annotations

import inspect
from typing import Any, Coroutine as CoroutineType, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Simulator


class Sleep:
    """Awaitable: resume the awaiting coroutine ``delay`` time units on.

    ``daemon=True`` makes the wake-up a daemon event: housekeeping
    coroutines (the fault injector's crash timers) sleeping on daemon
    sleeps do not keep :meth:`~repro.sim.kernel.Simulator.run` alive.
    """

    __slots__ = ("delay", "daemon")

    def __init__(self, delay: float, daemon: bool = False) -> None:
        if not delay >= 0:
            raise SimulationError(f"sleep delay must be >= 0, got {delay!r}")
        self.delay = float(delay)
        self.daemon = daemon

    def __await__(self) -> Generator["Sleep", None, None]:
        yield self


class Coroutine:
    """Steps an ``async def`` on the kernel, one event per :class:`Sleep`.

    The first step is a zero-delay event (so it runs after events
    already pending at the current instant); a coroutine that never
    sleeps finishes inside it.  An exception the coroutine raises
    propagates out of :meth:`~repro.sim.kernel.Simulator.run`.
    """

    __slots__ = ("sim", "name", "_coro", "_event")

    def __init__(
        self,
        sim: Simulator,
        coro: CoroutineType[Any, None, Any],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> None:
        if not inspect.iscoroutine(coro):
            raise SimulationError(
                f"Coroutine requires a coroutine object, got {type(coro).__name__}; "
                "did you call the async function with ()?"
            )
        self.sim = sim
        self.name = name or getattr(coro, "__name__", "coroutine")
        self._coro: Optional[CoroutineType[Any, None, Any]] = coro
        self._event: Optional[Event] = sim.schedule(
            0.0, self._step, tag=f"coro:{self.name}:start", daemon=daemon
        )

    @property
    def alive(self) -> bool:
        """True until the coroutine returns, raises, or is stopped."""
        return self._coro is not None

    def stop(self) -> None:
        """Cancel the pending wake-up and close the coroutine for good."""
        coro, self._coro = self._coro, None
        if coro is None:
            return
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None
        coro.close()

    def _step(self) -> None:
        coro, self._event = self._coro, None
        assert coro is not None, "a stopped coroutine has no pending event"
        try:
            sleep = coro.send(None)
        except StopIteration:
            self._coro = None
            return
        except BaseException:
            self._coro = None
            raise
        if type(sleep) is not Sleep:
            self._coro = None
            coro.close()
            raise SimulationError(
                f"coroutine {self.name!r} awaited {sleep!r}; on the kernel only "
                "Sleep (clock.sleep) can be awaited"
            )
        self._event = self.sim.schedule(
            sleep.delay, self._step, tag="sleep", daemon=sleep.daemon
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Coroutine {self.name!r} {'alive' if self.alive else 'done'}>"
