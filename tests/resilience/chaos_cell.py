"""One ``repro resilience`` cell built by hand, every layer journaling.

The sites, the ``ResilientBroker`` and (through the sites) the circuit
breakers all write one flight recorder.  Shared by
``test_journaled_chaos.py`` and by CI's resilience smoke, which journals
a cell to a file and runs ``repro audit`` on it — so no pytest here.
"""

from repro.experiments import resilience as sweep
from repro.faults.injector import FaultInjector
from repro.faults.restart import make_restart_policy
from repro.faults.spec import FaultSpec
from repro.faults.stats import FaultStats
from repro.market import MarketSite, run_market
from repro.resilience import ResilienceConfig, ResilienceManager, ResilientBroker
from repro.scheduling import FirstReward
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.site import SlackAdmission
from repro.workload import economy_spec, generate_trace

N_SITES = SLOTS = 4
N_JOBS = 300
MTTF = 250.0


def cell_inputs(seed, budget):
    spec = economy_spec(
        n_jobs=N_JOBS,
        value_skew=sweep.VALUE_SKEW,
        decay_skew=sweep.DECAY_SKEW,
        load_factor=sweep.LOAD_FACTOR,
        processors=N_SITES * SLOTS,
        penalty_bound=sweep.PENALTY_BOUND,
    )
    faults = FaultSpec(mttf=MTTF, mttr=sweep.MTTR, restart="abandon")
    config = ResilienceConfig(enabled=True, failover_budget=budget)
    return generate_trace(spec, seed=seed), faults, config


def heuristic():
    return FirstReward(sweep.ALPHA, sweep.DISCOUNT_RATE)


def admission():
    return SlackAdmission(sweep.SLACK_THRESHOLD, sweep.DISCOUNT_RATE)


def journaled_chaos_cell(seed, budget, flight):
    """Run the (seed, failover budget) cell at MTTF 250 into *flight*.

    Returns ``(result, manager)``.
    """
    trace, faults, config = cell_inputs(seed, budget)
    sim = Simulator()
    sites = [
        MarketSite(
            sim,
            site_id=f"site-{i}",
            processors=SLOTS,
            heuristic=heuristic(),
            admission=admission(),
            discard_expired=True,
            restart_policy=make_restart_policy(faults),
            flight=flight,
        )
        for i in range(N_SITES)
    ]
    manager = ResilienceManager(sim, config, sites)
    broker = ResilientBroker(sites=sites, manager=manager, flight=flight)
    streams = RandomStreams(seed)
    stats = FaultStats()
    injectors = [
        FaultInjector.on_site(
            sim, faults, site.engine, streams, stats,
            stream_prefix=f"fault:{site.site_id}",
        )
        for site in sites
    ]
    result = run_market(trace, sites, broker=broker, flight=flight)
    for injector in injectors:
        injector.shutdown()
    manager.finalize(sim.now)
    return result, manager
