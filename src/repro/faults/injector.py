"""The fault injector: per-node crash/repair cycles as kernel coroutines.

One daemon :class:`~repro.sim.coroutine.Coroutine` per node alternates

    up for TTF  →  crash  →  down for TTR  →  repair  →  up for TTF …

with exponential TTF/TTR of the :class:`~repro.faults.FaultSpec`'s
means drawn on a dedicated named RNG stream per node (so adding or
removing nodes never perturbs another node's fault trace, and the same
(seed, node) pair always crashes at the same times).

Event-liveness semantics matter here:

* *Crash* sleeps are **daemon** events — a pending crash never keeps
  the simulation alive, so a run still ends when the real work drains
  (faults only strike while there is work to disrupt).
* *Repair* sleeps are **essential** — once a node is down, the repair
  always lands.  Otherwise a run could end with the queue non-empty and
  every node dead: the repair event is precisely what un-wedges it.

The injector publishes crashes/repairs through two callbacks instead of
importing the site layer, keeping ``repro.faults`` below ``repro.site``
in the dependency order.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.faults.spec import FaultSpec
from repro.faults.stats import FaultStats
from repro.sim.coroutine import Coroutine, Sleep
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.instrument import Observability


class FaultInjector:
    """Drives crash/repair cycles for a set of nodes.

    Parameters
    ----------
    sim:
        The simulation kernel.
    spec:
        Fault model configuration (MTTF/MTTR).
    node_ids:
        Stable node identities to inject faults on (see
        :meth:`repro.site.processors.ProcessorPool.node_ids_of`).
    streams:
        Seeded stream factory; node *n* draws from stream
        ``"{stream_prefix}:node:{n}"``.
    on_crash / on_repair:
        Callables invoked with the node id when its state flips.
    stats:
        Optional shared :class:`FaultStats` (created when omitted).
    obs:
        Optional :class:`~repro.obs.instrument.Observability` that
        receives crash/repair counters, a time-weighted nodes-down
        gauge, and per-node instant span marks.  Observer only: fault
        timing is drawn from the same streams with or without it.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: FaultSpec,
        node_ids: Iterable[int],
        streams: RandomStreams,
        on_crash: Callable[[int], None],
        on_repair: Callable[[int], None],
        stats: Optional[FaultStats] = None,
        stream_prefix: str = "fault",
        obs: "Optional[Observability]" = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.streams = streams
        self.on_crash = on_crash
        self.on_repair = on_repair
        self.stats = stats if stats is not None else FaultStats()
        self.stream_prefix = stream_prefix
        self.obs = obs
        self._down_count = 0
        self.loops = [
            Coroutine(sim, self._node_loop(int(node_id)), name=f"fault:{node_id}", daemon=True)
            for node_id in node_ids
        ]

    @classmethod
    def on_site(
        cls,
        sim: Simulator,
        spec: FaultSpec,
        site,
        streams: RandomStreams,
        stats: Optional[FaultStats] = None,
        stream_prefix: str = "fault",
        obs: "Optional[Observability]" = None,
    ) -> "FaultInjector":
        """An injector over every node of one site engine: crashes and
        repairs drive ``site.crash_node``/``repair_node``, and each task
        a crash kills is booked on the injector's stats."""
        injector = cls(
            sim,
            spec,
            node_ids=range(site.processors.count),
            streams=streams,
            on_crash=site.crash_node,
            on_repair=site.repair_node,
            stats=stats,
            stream_prefix=stream_prefix,
            obs=obs,
        )
        site.crash_listeners.append(injector.stats.note_kill)
        return injector

    # ------------------------------------------------------------------
    async def _node_loop(self, node_id: int) -> None:
        rng = self.streams.get(f"{self.stream_prefix}:node:{node_id}")
        while True:
            ttf = self.spec.draw_ttf(rng)
            if math.isinf(ttf):
                return  # crashes disabled (mttf=inf): nothing to do
            await Sleep(ttf, daemon=True)
            self.stats.note_down(node_id, self.sim.now)
            if self.obs is not None:
                self._down_count += 1
                self.obs.node_crashed(node_id, self.sim.now, self._down_count)
            self.on_crash(node_id)
            ttr = self.spec.draw_ttr(rng)
            # essential: a down node's repair must fire even if it is
            # the only future event — it may be what unblocks the queue
            await Sleep(ttr)
            self.stats.note_up(node_id, self.sim.now)
            if self.obs is not None:
                self._down_count -= 1
                self.obs.node_repaired(node_id, self.sim.now, self._down_count)
            self.on_repair(node_id)

    # ------------------------------------------------------------------
    def stop(self) -> int:
        """Stop every live node loop where it sleeps (its pending crash
        or repair event is cancelled); returns how many were stopped."""
        stopped = self.active_count
        for loop in self.loops:
            loop.stop()
        return stopped

    def shutdown(self) -> None:
        """End of run: stop the loops and charge the downtime of nodes
        still dead.  Once :meth:`~repro.sim.kernel.Simulator.run` has
        returned, only daemon crash timers are pending, so there is
        nothing left to run afterwards."""
        self.stop()
        self.stats.close(self.sim.now)

    @property
    def active_count(self) -> int:
        return sum(1 for loop in self.loops if loop.alive)

    def __repr__(self) -> str:
        return (
            f"<FaultInjector nodes={len(self.loops)} "
            f"crashes={self.stats.crashes} repairs={self.stats.repairs}>"
        )
