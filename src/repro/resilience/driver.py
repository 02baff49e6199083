"""Drive a trace through a multi-site market under chaos + resilience.

:func:`simulate_resilient_market` is the resilience layer's counterpart
of :func:`repro.site.driver.simulate_site`: it builds N market sites on
one simulator, wires a :class:`~repro.resilience.broker.ResilientBroker`
and :class:`~repro.resilience.manager.ResilienceManager` over them,
optionally injects per-site node crash/repair churn (independent seeded
fault streams per site), runs the trace to drain, and returns one result
object carrying the economy outcome, the fault disruption, and the
recovery books.

With ``config.enabled=False`` the manager attaches nothing and the
broker takes the plain :class:`~repro.market.broker.Broker` path — the
chaos sweep compares exactly this pair of runs at each grid point.

Like :func:`~repro.site.driver.simulate_site`, a run picks up an
ambient :func:`repro.obs.observing` attachment when no *obs* is given
and brackets itself as one observed run; results are byte-identical
with or without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import MarketError
from repro.market.economy import EconomyResult, MarketEconomy
from repro.market.sites import MarketSite
from repro.resilience.broker import ResilientBroker
from repro.resilience.config import ResilienceConfig
from repro.resilience.manager import ResilienceManager
from repro.scheduling.base import SchedulingHeuristic
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.site.driver import _resolve_obs
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults.injector import FaultInjector
    from repro.faults.spec import FaultSpec
    from repro.faults.stats import FaultStats
    from repro.obs.instrument import Observability


@dataclass
class ResilientMarketResult:
    """Outcome of one chaos-injected market run."""

    economy: EconomyResult
    manager: ResilienceManager
    sites: list[MarketSite]
    sim: Simulator
    fault_stats: "Optional[FaultStats]" = None

    @property
    def total_revenue(self) -> float:
        return self.economy.total_revenue


def simulate_resilient_market(
    trace: Trace,
    heuristic_factory: Callable[[], SchedulingHeuristic],
    n_sites: int = 4,
    processors_per_site: int = 4,
    admission_factory: Optional[Callable[[], object]] = None,
    config: Optional[ResilienceConfig] = None,
    faults: "Optional[FaultSpec]" = None,
    fault_seed: int = 0,
    obs: "Optional[Observability]" = None,
) -> ResilientMarketResult:
    """Run *trace* across ``n_sites`` sites with chaos and recovery.

    Each site gets its own heuristic/admission instance (factories, so
    per-site mutable state is never shared), its own restart policy
    derived from *faults*, and — crucially for common random numbers —
    its own named fault streams (``"fault:<site_id>:node:<n>"``) off one
    seeded :class:`~repro.sim.rng.RandomStreams`, so resizing one site
    never perturbs another site's crash trace.

    The breach path requires bounded penalties: under ``restart=
    "abandon"`` a killed task's contract settles at the value-function
    floor, which is what triggers failover re-bidding.
    """
    if n_sites < 1:
        raise MarketError(f"n_sites must be >= 1, got {n_sites!r}")
    config = config if config is not None else ResilienceConfig()
    obs = _resolve_obs(obs)
    if obs is not None:
        obs.begin_run("market+resilience" if config.enabled else "market")
    sim = Simulator()

    restart_policy = None
    if faults is not None:
        from repro.faults.restart import make_restart_policy

        restart_policy = make_restart_policy(faults)

    sites = [
        MarketSite(
            sim,
            site_id=f"site-{i}",
            processors=processors_per_site,
            heuristic=heuristic_factory(),
            admission=None if admission_factory is None else admission_factory(),
            discard_expired=True,
            restart_policy=restart_policy,
            obs=obs,
        )
        for i in range(n_sites)
    ]
    manager = ResilienceManager(sim, config, sites, obs=obs)
    broker = ResilientBroker(sites=sites, manager=manager)
    economy = MarketEconomy(sim, broker)
    economy.schedule_trace(trace)

    injectors: list["FaultInjector"] = []
    stats: "Optional[FaultStats]" = None
    if faults is not None:
        from repro.faults.injector import FaultInjector
        from repro.faults.stats import FaultStats

        stats = FaultStats()
        streams = RandomStreams(fault_seed)
        injectors = [
            FaultInjector.on_site(
                sim,
                faults,
                site.engine,
                streams,
                stats,
                stream_prefix=f"fault:{site.site_id}",
                obs=obs,
            )
            for site in sites
        ]

    result = economy.run()
    # only daemon crash timers are left: cancel them, close the downtime books
    for injector in injectors:
        injector.shutdown()
    manager.finalize(sim.now)
    if obs is not None:
        obs.end_run(
            sim.now,
            bids=len(trace),
            accepted=result.accepted,
            events=sim.events_fired,
            sim_time=sim.now,
            total_revenue=result.total_revenue,
            **({} if stats is None else {"crashes": stats.crashes}),
        )

    return ResilientMarketResult(
        economy=result,
        manager=manager,
        sites=sites,
        sim=sim,
        fault_stats=stats,
    )
