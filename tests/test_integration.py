"""Grand integration tests: the whole stack composed in one scenario.

These exercise realistic compositions across subsystem boundaries —
the kind of wiring a downstream user actually writes — and assert
cross-cutting conservation properties no unit test can see.
"""

import math

import numpy as np
import pytest

from repro import (
    FirstReward,
    Simulator,
    SlackAdmission,
    economy_spec,
    generate_trace,
)
from repro.analysis import SiteTimeline, run_report
from repro.market import Broker, BudgetedClient, MarketSite, PriceBoard
from repro.obs import Observability
from repro.resource import ElasticSite, ProvisioningPolicy, ResourceProvider
from repro.scheduling import FirstPrice
from repro.workload import parse_swf, dump_swf


class TestMarketWithBudgetsAndSignals:
    """Budgeted clients → broker → sites with a price board, end to end."""

    @pytest.fixture(scope="class")
    def outcome(self):
        sim = Simulator()
        board = PriceBoard()
        sites = [
            MarketSite(
                sim, site_id=f"s{i}", processors=4,
                heuristic=FirstReward(0.3, 0.01),
                admission=SlackAdmission(threshold=0.0, discount_rate=0.01),
                price_board=board,
            )
            for i in range(2)
        ]
        broker = Broker(sites=sites)
        rng = np.random.default_rng(0)
        clients = [
            BudgetedClient(sim, broker, budget_per_interval=b, interval=300.0,
                           client_id=f"c{j}")
            for j, b in enumerate((500.0, 3000.0))
        ]
        for j, client in enumerate(clients):
            for arrival in np.sort(rng.uniform(0.0, 500.0, 40)):
                runtime = float(rng.exponential(40.0)) + 1.0
                sim.schedule_at(
                    float(arrival), client.submit, runtime, 1.5 * runtime, 0.02 * runtime
                )
        sim.run()
        return sim, board, sites, clients

    def test_all_contracts_settle(self, outcome):
        _, board, sites, clients = outcome
        assert all(s.open_contracts == 0 for s in sites)
        for client in clients:
            client.reconcile()  # raises if anything is still open

    def test_money_conservation(self, outcome):
        # every settled price a client paid is revenue at exactly one site
        _, board, sites, clients = outcome
        client_spend = sum(c.settled_spend for c in clients)
        site_revenue = sum(s.revenue for s in sites)
        assert client_spend == pytest.approx(site_revenue)

    def test_price_board_saw_every_settlement(self, outcome):
        _, board, sites, clients = outcome
        settled = sum(len(s.contracts) for s in sites)
        assert board.published == settled
        assert settled == sum(len(c.contracts) for c in clients)

    def test_poor_client_hits_budget_ceiling(self, outcome):
        _, _, _, clients = outcome
        poor, rich = clients
        assert poor.skipped_for_budget > 0
        assert rich.skipped_for_budget == 0


class TestSwfThroughElasticReseller:
    """SWF round-trip feeding an elastic reseller under an observer."""

    @pytest.fixture(scope="class")
    def outcome(self):
        source = generate_trace(
            economy_spec(n_jobs=120, load_factor=1.5, processors=4, penalty_bound=0.0),
            seed=5,
        )
        trace = parse_swf(dump_swf(source), seed=5, penalty_bound=0.0)
        sim = Simulator()
        provider = ResourceProvider(sim, capacity=12, unit_price=0.02)
        site = ElasticSite(
            sim, provider, FirstPrice(),
            policy=ProvisioningPolicy(min_nodes=2, review_interval=30.0),
        )
        obs = site.engine.obs = Observability()
        initial_nodes = site.engine.processors.count
        for task in trace.to_tasks():
            sim.schedule_at(task.arrival, site.submit, task)
        sim.run()
        site.settle()
        timeline = SiteTimeline(obs.spans.finished, nodes=initial_nodes)
        return site, provider, timeline, obs, trace

    def test_everything_completes(self, outcome):
        site, provider, timeline, obs, trace = outcome
        assert site.engine.ledger.completed == len(trace)
        timeline.verify_no_overlap()

    def test_resource_accounting_balances(self, outcome):
        site, provider, *_ = outcome
        assert provider.revenue == pytest.approx(site.rent_paid)
        assert provider.leased_nodes == 0  # everything handed back
        assert site.profit == pytest.approx(
            site.engine.ledger.total_yield - site.rent_paid
        )

    def test_monitor_observed_the_run(self, outcome):
        site, provider, timeline, obs, trace = outcome
        engine = site.engine
        busy = obs.registry.time_weighted(f"site.busy_nodes.{engine.site_id}")
        depth = obs.registry.time_weighted(f"site.queue_depth.{engine.site_id}")
        assert busy.writes == depth.writes > 0
        # the gauges saw the elastic pool at work and the site end empty
        assert 0 < busy.max <= provider.capacity
        assert (busy.value, depth.value) == (0, 0)
        assert obs.registry.counter("tasks.completed").value == len(trace)

    def test_report_coheres_with_timeline(self, outcome):
        site, provider, timeline, *_ = outcome
        report = run_report(site.engine.ledger, timeline)
        assert report["execution"]["segments"] >= report["accounting"]["completed"]
        assert 0.0 < report["execution"]["utilization"] <= 1.0
