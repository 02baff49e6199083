"""One ``repro resilience`` cell built by hand, every layer journaling.

The sites and the plain ``Broker`` — failover re-bids included, each one
more ``Broker.negotiate`` round — all write one flight recorder, handed
in once: ``run_market`` opens the market's books with it.  Shared by
``test_journaled_chaos.py`` and by CI's resilience smoke, which journals
a cell to a file and runs ``repro audit`` on it — so no pytest here.
"""

from repro.experiments import resilience as sweep
from repro.faults.injector import FaultInjector
from repro.faults.restart import make_restart_policy
from repro.faults.spec import FaultSpec
from repro.faults.stats import FaultStats
from repro.market import Broker, MarketSite, run_market
from repro.resilience import ResilienceManager
from repro.resilience.driver import N_SITES
from repro.resilience.driver import PROCESSORS_PER_SITE as SLOTS
from repro.scheduling import FirstReward
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.site import SlackAdmission
from repro.workload import economy_spec, generate_trace

N_JOBS = 300
MTTF = 250.0


def cell_inputs(seed):
    spec = economy_spec(
        n_jobs=N_JOBS,
        value_skew=sweep.VALUE_SKEW,
        decay_skew=sweep.DECAY_SKEW,
        load_factor=sweep.LOAD_FACTOR,
        processors=N_SITES * SLOTS,
        penalty_bound=sweep.PENALTY_BOUND,
    )
    faults = FaultSpec(mttf=MTTF, mttr=sweep.MTTR, restart="abandon")
    return generate_trace(spec, seed=seed), faults


def heuristic():
    return FirstReward(sweep.ALPHA, sweep.DISCOUNT_RATE)


def admission():
    return SlackAdmission(sweep.SLACK_THRESHOLD, sweep.DISCOUNT_RATE)


def journaled_chaos_cell(seed, budget, flight):
    """Run the (seed, failover budget) cell at MTTF 250 into *flight*.

    Returns ``(result, manager)``.
    """
    trace, faults = cell_inputs(seed)
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
        )
        for i in range(N_SITES)
    ]
    broker = Broker(sites=sites)
    manager = ResilienceManager(broker, budget)
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
    return result, manager
