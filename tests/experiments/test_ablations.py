"""Shape checks for the ablations and extension experiments in EXPERIMENTS.md.

Each test runs a small controlled comparison and pins its qualitative
direction, so a regression in the engine shows up as a failure, not
just as different numbers.
"""

from repro.experiments.consolidation import run_consolidation
from repro.experiments.fig3 import fig3_spec
from repro.experiments.sensitivity import run_skew_grid
from repro.resource import ElasticSite, ProvisioningPolicy, ResourceProvider
from repro.scheduling import FirstPrice, FirstReward, PresentValue
from repro.sim import Simulator
from repro.site import SlackAdmission, simulate_site
from repro.workload import economy_spec, generate_trace, millennium_spec

from tests.site.test_misestimation import with_estimate_noise


def _yield(trace, heuristic, processors, **kw):
    return simulate_site(
        trace, heuristic, processors, keep_records=False, **kw
    ).total_yield


def test_ablation_preemption():
    """Preemption on/off for the Figure 3 mix: preemption lets urgent
    high-value arrivals displace committed work and should never lose
    much."""
    spec = fig3_spec(value_skew=4.0, n_jobs=1200)
    trace = generate_trace(spec, seed=0)
    off, on = (
        _yield(trace, FirstPrice(), spec.processors, preemption=preempt)
        for preempt in (False, True)
    )
    assert on > 0.9 * off  # preemption must not collapse yield


def test_ablation_discard_expired():
    """Discarding expired bounded tasks frees capacity: with penalties
    bounded at zero, discarding can only help FirstPrice under overload."""
    spec = economy_spec(n_jobs=1200, load_factor=2.0, penalty_bound=0.0)
    trace = generate_trace(spec, seed=0)
    kept, discarded = (
        _yield(trace, FirstPrice(), spec.processors, discard_expired=discard)
        for discard in (False, True)
    )
    assert discarded >= kept - 1e-6


def test_ablation_burst_sessions():
    """Fig 3's burst sessions vs the nominal 16-job batches: the PV
    advantage requires same-class queueing depth (see DESIGN.md)."""
    improvement_pct = {}
    for batch in (16, 256):
        spec = millennium_spec(
            n_jobs=1500, value_skew=4.0, duration_cv=0.5,
            decay_horizon=2.0, batch_size=batch,
        )
        trace = generate_trace(spec, seed=0)
        fp = _yield(trace, FirstPrice(), spec.processors, preemption=True)
        pv = _yield(trace, PresentValue(0.01), spec.processors, preemption=True)
        improvement_pct[batch] = 100.0 * (pv - fp) / abs(fp)
    assert improvement_pct[256] > improvement_pct[16]


def test_ablation_discount_alpha_grid():
    """Interaction of the two FirstReward knobs on the unbounded mix."""
    spec = economy_spec(n_jobs=1200, load_factor=0.9, value_skew=2.0, decay_skew=5.0)
    trace = generate_trace(spec, seed=0)
    by = {
        (alpha, rate): _yield(trace, FirstReward(alpha, rate), spec.processors)
        for alpha in (0.0, 0.5, 1.0)
        for rate in (0.0, 0.01, 0.1)
    }
    # cost-awareness dominates on this mix regardless of discounting
    assert by[(0.0, 0.01)] > by[(1.0, 0.0)]


def test_ablation_penalty_bound_sweep():
    """How the penalty bound changes what the site earns and loses."""
    yields = []
    for bound in (0.0, 50.0, 200.0, None):
        spec = economy_spec(n_jobs=1200, load_factor=1.5, penalty_bound=bound)
        trace = generate_trace(spec, seed=0)
        yields.append(_yield(trace, FirstPrice(), spec.processors))
    # tighter bounds can only protect the site: yield decreases as the
    # bound loosens toward unbounded
    assert yields[0] >= yields[-1]


def test_ablation_runtime_misestimation():
    """The §4 extension: how much does estimate noise cost?

    Same true workload, increasingly noisy declared estimates; the value
    function charges overruns against the declaration, so yield must
    degrade as noise grows.
    """
    spec = economy_spec(n_jobs=1200, load_factor=1.2, penalty_bound=0.0)
    truth = generate_trace(spec, seed=0)
    yields = [_yield(truth, FirstPrice(), spec.processors)]
    for cv in (0.3, 0.8, 1.5):
        trace = with_estimate_noise(truth, cv)
        yields.append(_yield(trace, FirstPrice(), spec.processors))
    assert yields[0] > yields[-1]  # heavy noise must cost yield


def test_ablation_admission_discount():
    """Slack admission with/without PV discounting of expected gains."""
    spec = economy_spec(n_jobs=1200, load_factor=3.0)
    trace = generate_trace(spec, seed=0)
    rejections = [
        simulate_site(
            trace,
            FirstReward(0.0, 0.01),
            spec.processors,
            keep_records=False,
            admission=SlackAdmission(180.0, rate),
        ).ledger.rejected
        for rate in (0.0, 0.01, 0.1)
    ]
    # discounting lowers PV and hence slack; heavy discounting must reject
    # more than no discounting (closed-loop feedback makes the middle
    # point non-monotone, so only the endpoints are asserted)
    assert rejections[-1] > rejections[0]


def test_consolidation():
    """Private clusters vs consolidated utility vs market (intro claim)."""
    result = run_consolidation(n_jobs=800, seeds=(0,), load_factors=(0.7, 1.0))
    for load in (0.7, 1.0):
        private = result.lookup(load_factor=load, organization="private")
        consolidated = result.lookup(load_factor=load, organization="consolidated")
        market = result.lookup(load_factor=load, organization="market")
        # the paper's claim: sharing improves resource efficiency
        assert consolidated["total_yield"] >= private["total_yield"]
        assert consolidated["mean_delay"] <= private["mean_delay"]
        # the market recovers (most of) the multiplexing without merging
        assert market["total_yield"] >= 0.95 * consolidated["total_yield"]


def test_sensitivity_skew_grid():
    """§4.1's interaction claim: decay skew drives FirstReward's edge."""
    result = run_skew_grid(
        n_jobs=600, seeds=(0,), value_skews=(1.0, 4.0), decay_skews=(1.0, 5.0),
    )
    for vskew in (1.0, 4.0):
        hi = result.lookup(value_skew=vskew, decay_skew=5.0)["improvement_pct"]
        lo = result.lookup(value_skew=vskew, decay_skew=1.0)["improvement_pct"]
        assert hi > lo


def test_elastic_provisioning():
    """§7's reseller: elastic leasing beats fixed fleets on profit."""
    rent = 0.08
    spec = economy_spec(n_jobs=400, load_factor=1.6, processors=8, penalty_bound=0.0)
    trace = generate_trace(spec, seed=13)
    static_profit = {}
    for fleet in (8, 32):
        res = simulate_site(trace, FirstPrice(), processors=fleet, keep_records=False)
        static_profit[fleet] = res.total_yield - fleet * rent * res.sim.now
    sim = Simulator()
    provider = ResourceProvider(sim, capacity=32, unit_price=rent)
    site = ElasticSite(
        sim, provider, FirstPrice(),
        policy=ProvisioningPolicy(min_nodes=2, review_interval=25.0),
    )
    for task in trace.to_tasks():
        sim.schedule_at(task.arrival, site.submit, task)
    sim.run()
    site.settle()
    assert site.profit > static_profit[32]  # never pay for idle peak capacity
    assert site.profit > static_profit[8] * 0.95  # and track the burst
