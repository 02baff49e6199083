"""Discrete-event simulation substrate.

The paper's evaluation is a discrete-event simulation of a bidding and
task-service economy (§4.1).  This subpackage is a self-contained DES
kernel built for that purpose — no external simulation framework is used.

Layers, lowest to highest:

* :mod:`repro.sim.events` / :mod:`repro.sim.queue` — timestamped events
  and the pending-event set: one binary heap of ``(time, priority, seq,
  event)`` tuples, O(log n) push/pop, lazy cancellation.
* :mod:`repro.sim.kernel` — the :class:`Simulator`: clock, scheduling
  primitives, run loop.
* :mod:`repro.sim.coroutine` — ``async def`` code on the kernel: the one
  awaitable (:class:`Sleep`, one event per sleep) and the one driver
  (:class:`Coroutine`) behind the fault injector and a kernel-hosted
  ``LiveService.drain``.
* :mod:`repro.sim.clock` — the :class:`Clock` seam (``now``, ``sleep``)
  shared code reads time and waits through, on either host.
* :mod:`repro.sim.rng` — named, independently-seeded random streams so
  experiments are reproducible and components draw from decoupled
  streams.

The kernel records nothing about a run: what a site did is the span list
of an attached :class:`~repro.obs.instrument.Observability`.
"""

from repro.sim.clock import Clock, SimClock
from repro.sim.coroutine import Coroutine, Sleep
from repro.sim.events import Event, EventState
from repro.sim.kernel import Simulator
from repro.sim.queue import EventQueue
from repro.sim.rng import RandomStreams

__all__ = [
    "Clock",
    "Coroutine",
    "Event",
    "EventQueue",
    "EventState",
    "RandomStreams",
    "SimClock",
    "Simulator",
    "Sleep",
]
