"""Sim-vs-live parity of the shared decision machinery.

The contract behind the clock seam: admission, heuristic ordering, and
quoting are pure functions of (clock reading, queue state) — so feeding
the *same* instant through a SimClock and a FrozenClock must produce
bit-identical decisions.  If these tests break, live mode has drifted
from the paper's policies.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.live.clock import FrozenClock
from repro.live.config import LiveSiteSpec
from repro.live.executor import SubprocessExecutor
from repro.live.site import LiveSite
from repro.market.sites import MarketSite
from repro.scheduling.firstreward import FirstReward
from repro.sim import Simulator
from repro.site.admission import SlackAdmission
from repro.site.service import TaskServiceSite
from repro.tasks.bid import TaskBid
from repro.tasks.task import Task
from repro.valuefn.linear import LinearDecayValueFunction


def _engine(clock=None) -> TaskServiceSite:
    return TaskServiceSite(
        Simulator(),
        processors=2,
        heuristic=FirstReward(alpha=0.3, discount_rate=0.01),
        admission=None,
        clock=clock,
    )


def _task(arrival, runtime, value, decay, bound=None, tid=None):
    return Task(
        arrival=arrival,
        runtime=runtime,
        vf=LinearDecayValueFunction(value, decay, bound),
        tid=tid,
    )


@given(
    runtime=st.floats(min_value=1.0, max_value=5000.0),
    value=st.floats(min_value=0.1, max_value=1000.0),
    decay=st.floats(min_value=0.0, max_value=10.0),
    threshold=st.floats(min_value=-100.0, max_value=1000.0),
)
def test_admission_identical_under_simclock_and_frozen_wallclock(
    runtime, value, decay, threshold
):
    """Same instant, same queue ⇒ the same AdmissionDecision, field for field."""
    sim_site = _engine()  # default SimClock over a sim at t=0
    frozen_site = _engine(clock=FrozenClock(0.0))
    admission = SlackAdmission(threshold=threshold)

    probe_a = _task(0.0, runtime, value, decay, tid=9001)
    probe_b = _task(0.0, runtime, value, decay, tid=9001)
    decision_sim = admission.evaluate(sim_site, probe_a)
    decision_live = admission.evaluate(frozen_site, probe_b)
    assert decision_sim == decision_live  # frozen dataclass: exact equality


def test_admission_identical_with_queued_work():
    """Parity holds with a non-trivial candidate schedule, at a later instant."""
    sim = Simulator()
    sim.schedule(500.0, lambda: None)
    sim.run()  # sim clock now at 500
    sim_site = TaskServiceSite(
        sim, processors=2, heuristic=FirstReward(alpha=0.3, discount_rate=0.01)
    )
    frozen_site = _engine(clock=FrozenClock(500.0))
    for site in (sim_site, frozen_site):
        for i, (runtime, value, decay) in enumerate(
            [(300.0, 50.0, 0.2), (100.0, 10.0, 0.05), (700.0, 95.0, 0.9)]
        ):
            task = _task(500.0, runtime, value, decay, tid=100 + i)
            task.submit()
            task.accept()
            site.pool.add(task)

    admission = SlackAdmission(threshold=180.0)
    probe_sim = _task(500.0, 250.0, 40.0, 0.3, tid=999)
    probe_live = _task(500.0, 250.0, 40.0, 0.3, tid=999)
    assert admission.evaluate(sim_site, probe_sim) == admission.evaluate(
        frozen_site, probe_live
    )


def _quotes_equal(quote_market, quote_live):
    assert (quote_market is None) == (quote_live is None)
    if quote_market is not None:
        assert quote_live.expected_completion == quote_market.expected_completion
        assert quote_live.expected_price == quote_market.expected_price
        assert quote_live.expected_slack == quote_market.expected_slack


def test_live_site_quotes_match_market_site():
    """An idle LiveSite and an idle MarketSite quote the same bid identically."""
    market = MarketSite(
        Simulator(),
        site_id="s",
        processors=2,
        heuristic=FirstReward(alpha=0.3, discount_rate=0.01),
        admission=SlackAdmission(threshold=180.0),
    )
    clock = FrozenClock(0.0)
    live = LiveSite(
        clock,
        LiveSiteSpec(site_id="s", slots=2, threshold=180.0),
        SubprocessExecutor(clock, rate=1.0, max_running=2),
    )
    for runtime, value, decay, bound in [
        (300.0, 100.0, 0.5, None),
        (60.0, 10.0, 0.02, 20.0),
        (1000.0, 5.0, 3.0, None),  # hopeless slack: both must decline
    ]:
        bid_a = TaskBid(runtime=runtime, value=value, decay=decay, bound=bound,
                        released_at=0.0)
        bid_b = TaskBid(runtime=runtime, value=value, decay=decay, bound=bound,
                        released_at=0.0)
        _quotes_equal(market.quote(bid_a), live.quote(bid_b))


class _CountingHeuristic(FirstReward):
    """FirstReward that counts how often it is asked to rank."""

    def __init__(self):
        super().__init__(alpha=0.3, discount_rate=0.01)
        self.calls = 0

    def scores(self, cols, now):
        self.calls += 1
        return super().scores(cols, now)


def test_empty_pool_quote_and_lone_dispatch_match_the_sim_site():
    """Neither site ranks when there is nothing to rank against: an
    empty-pool quote and the start of a lone queued task cost no
    ``scores()`` call on either, and the answers are the same."""
    market = MarketSite(
        Simulator(),
        site_id="s",
        processors=2,
        heuristic=_CountingHeuristic(),
        admission=SlackAdmission(threshold=180.0),
    )
    clock = FrozenClock(0.0)
    live = LiveSite(
        clock,
        LiveSiteSpec(site_id="s", slots=2, threshold=180.0),
        SubprocessExecutor(clock, rate=1.0, max_running=2),
    )
    live.heuristic = _CountingHeuristic()

    def bids(runtime, value, decay):
        return [
            TaskBid(runtime=runtime, value=value, decay=decay, released_at=0.0)
            for _ in range(2)
        ]

    # idle nodes, empty pool
    bid_market, bid_live = bids(300.0, 1000.0, 0.5)
    quote_market, quote_live = market.quote(bid_market), live.quote(bid_live)
    assert quote_market is not None
    _quotes_equal(quote_market, quote_live)

    # the award queues one task: both sites start it without ranking it
    market.award(bid_market, quote_market)
    live.award(bid_live, quote_live)
    started = live.next_dispatch()
    assert started is not None and started.runtime == 300.0
    live.begin(started)
    assert live.next_dispatch() is None  # nothing else queued
    (running,) = market.engine.processors.running_tasks
    assert running.runtime == started.runtime
    assert not market.engine.pool and not live.pool

    # one node busy, pool still empty: the closed form again, same answer
    for shape in [(60.0, 40.0, 0.02), (1000.0, 5.0, 3.0)]:
        _quotes_equal(*(site.quote(bid) for site, bid in zip((market, live), bids(*shape))))
    assert market.engine.processors.free_times(0.0) == live.processors.free_times(0.0)

    assert market.engine.heuristic.calls == 0
    assert live.heuristic.calls == 0

    # two queued tasks are ranked, once
    for shape in [(50.0, 10.0, 0.01), (20.0, 90.0, 0.04)]:
        bid = bids(*shape)[0]
        live.award(bid, live.quote(bid))
    assert live.next_dispatch() is not None
    assert live.heuristic.calls == 2  # the second quote's probe, then the dispatch
