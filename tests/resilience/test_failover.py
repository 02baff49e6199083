"""Failover re-bidding, breaker gating, and the budgeted client's
breach reconciliation — the recovery paths end to end."""

import pytest

from repro.faults.restart import AbandonRestart
from repro.market import Broker, MarketSite
from repro.market.client import BudgetedClient
from repro.resilience import ResilienceConfig, ResilienceManager, ResilientBroker
from repro.resilience.breaker import BREAKER_FAILURES, COOLDOWN
from repro.scheduling import FirstPrice
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.tasks import TaskBid


def make_site(sim, site_id, processors=1, **kwargs):
    kwargs.setdefault("admission", SlackAdmission(threshold=-1e9, discount_rate=0.0))
    return MarketSite(
        sim, site_id=site_id, processors=processors, heuristic=FirstPrice(), **kwargs
    )


def make_market(sim, n_sites=2, config=None, **site_kwargs):
    sites = [make_site(sim, f"s{i}", **site_kwargs) for i in range(n_sites)]
    manager = ResilienceManager(
        sim, config or ResilienceConfig(enabled=True), sites
    )
    broker = ResilientBroker(sites=sites, manager=manager)
    return sites, manager, broker


def trip(breaker, at=0.0):
    """Open *breaker* with consecutive breaches at *at*."""
    for _ in range(BREAKER_FAILURES):
        breaker.record_failure(at)


def make_bid(runtime=10.0, value=100.0, decay=2.0, bound=20.0, released_at=0.0):
    return TaskBid(
        runtime=runtime, value=value, decay=decay, bound=bound,
        client_id="c", released_at=released_at,
    )


class TestFailoverRebid:
    def _breach_first_contract(self, config, crash_at=5.0):
        sim = Simulator()
        sites, manager, broker = make_market(
            sim, n_sites=2, config=config, restart_policy=AbandonRestart()
        )
        outcome = broker.negotiate(make_bid())
        assert outcome.contract is not None
        winner = next(s for s in sites if s.site_id == outcome.contract.site_id)
        sim.schedule(crash_at, winner.engine.crash_node, 0)
        sim.run()
        return sim, sites, manager, outcome

    def test_breach_triggers_rebid_on_surviving_site(self):
        config = ResilienceConfig(enabled=True, failover_budget=1)
        sim, sites, manager, outcome = self._breach_first_contract(config)
        stats = manager.stats
        assert stats.breaches == 1
        assert stats.failovers_attempted == 1
        assert stats.failovers_contracted == 1
        assert stats.failovers_completed == 1
        # crash at t=5, re-bid completes at 15; value decays from release 0
        assert stats.value_recovered == pytest.approx(100.0 - 2.0 * 5.0)
        assert stats.value_lost_to_breach == pytest.approx(20.0)

    def test_failed_site_excluded_from_rebid(self):
        config = ResilienceConfig(enabled=True, failover_budget=1)
        _, sites, manager, outcome = self._breach_first_contract(config)
        failed = outcome.contract.site_id
        survivor = next(s for s in sites if s.site_id != failed)
        assert len(survivor.contracts) == 1
        assert survivor.contracts[0].settled

    def test_every_contract_settles_exactly_once(self):
        config = ResilienceConfig(enabled=True, failover_budget=1)
        _, sites, manager, _ = self._breach_first_contract(config)
        contracts = [c for s in sites for c in s.contracts]
        assert len(contracts) == 2  # original + failover
        assert all(c.settled for c in contracts)
        assert manager.double_completions == 0
        # the lineage links both contracts
        (lineage,) = manager.lineages
        assert len(lineage.contracts) == 2
        assert lineage.completed == 1

    def test_zero_budget_records_exhaustion_without_rebid(self):
        config = ResilienceConfig(enabled=True, failover_budget=0)
        _, sites, manager, _ = self._breach_first_contract(config)
        assert manager.stats.breaches == 1
        assert manager.stats.failovers_attempted == 0
        assert manager.stats.lineages_exhausted == 1
        assert sum(len(s.contracts) for s in sites) == 1

    def test_rebid_value_decays_from_original_release(self):
        """A late crash leaves little remaining value; the re-bid still
        lands (floored at the bound) but recovers only what is left."""
        config = ResilienceConfig(enabled=True, failover_budget=1)
        # crash at t=9.5: re-run completes at 19.5, delay 9.5, value 81
        _, _, manager, _ = self._breach_first_contract(config, crash_at=9.5)
        assert manager.stats.value_recovered == pytest.approx(100.0 - 2.0 * 9.5)

    def test_breach_updates_health_and_breaker_books(self):
        config = ResilienceConfig(enabled=True, failover_budget=1)
        _, _, manager, outcome = self._breach_first_contract(config)
        failed = outcome.contract.site_id
        assert manager.health.score(failed) < 1.0
        assert manager.health.breach_rate(failed) > 0.0
        # one breach, short of the trip wire: counted, breaker still closed
        assert manager.breakers[failed].consecutive_failures == 1
        assert manager.breakers[failed].opens == 0

    def test_disabled_config_attaches_nothing(self):
        sim = Simulator()
        sites, manager, broker = make_market(
            sim, n_sites=2, config=ResilienceConfig(enabled=False),
            restart_policy=AbandonRestart(),
        )
        assert all(not s.settlement_listeners for s in sites)
        outcome = broker.negotiate(make_bid())
        sim.schedule(5.0, sites[0].engine.crash_node, 0)
        sim.run()
        assert manager.stats.breaches == 0
        assert manager.stats.failovers_attempted == 0
        assert sum(len(s.contracts) for s in sites) == 1


class TestBreakerGating:
    def test_open_breaker_stops_solicitation(self):
        sim = Simulator()
        sites, manager, broker = make_market(sim)
        trip(manager.breakers["s0"])
        outcome = broker.negotiate(make_bid())
        assert outcome.contract.site_id == "s1"
        assert all(q.site_id == "s1" for q in outcome.quotes)
        assert sites[0].quotes_issued == 0

    def test_all_breakers_open_rejects_the_bid(self):
        sim = Simulator()
        _, manager, broker = make_market(sim)
        for breaker in manager.breakers.values():
            trip(breaker)
        outcome = broker.negotiate(make_bid())
        assert outcome.contract is None
        assert broker.rejections == 1

    def test_a_gated_rejection_is_counted_and_journaled_once(self):
        from repro.obs.flight import FlightRecorder

        sim = Simulator()
        flight = FlightRecorder()
        sites, manager, broker = make_market(sim, flight=flight)
        broker.flight = flight
        for breaker in manager.breakers.values():
            trip(breaker)
        assert broker.negotiate(make_bid()).contract is None
        assert (broker.negotiations, broker.rejections) == (1, 1)
        # the breakers opening, then a bid nobody was asked to quote on
        kinds = [e["kind"] for e in flight.events]
        assert kinds == ["breaker", "breaker", "bid"]

    def test_half_open_probe_accounted_on_award(self):
        sim = Simulator()
        sites, manager, broker = make_market(sim)
        trip(manager.breakers["s0"])
        trip(manager.breakers["s1"])
        sim.schedule(COOLDOWN + 5.0, lambda: None)
        sim.run()  # past both cooldowns
        first = broker.negotiate(make_bid(released_at=sim.now))
        assert first.contract is not None
        probed = first.contract.site_id
        other = "s1" if probed == "s0" else "s0"
        # the probed site's (single) probe slot is used up; the other admits one
        second = broker.negotiate(make_bid(released_at=sim.now))
        assert second.contract is not None
        assert second.contract.site_id == other


class TestBudgetedClientBreachReconciliation:
    def _run_breach(self, bound=20.0):
        sim = Simulator()
        site = MarketSite(
            sim, site_id="s0", processors=1, heuristic=FirstPrice(),
            admission=SlackAdmission(threshold=-1e9, discount_rate=0.0),
            restart_policy=AbandonRestart(),
        )
        broker = Broker(sites=[site])
        client = BudgetedClient(sim, broker, budget_per_interval=100.0)
        outcome = client.submit(runtime=10.0, value=100.0, decay=2.0, bound=bound)
        assert outcome.contract is not None
        sim.schedule(5.0, site.engine.crash_node, 0)
        sim.run()
        return client, outcome.contract

    def test_breach_refund_restores_available_budget(self):
        client, contract = self._run_breach(bound=20.0)
        assert contract.settled
        assert contract.actual_price == pytest.approx(-20.0)
        # committed 100; settled at -20: the full 120 difference returns
        assert client.breach_refunds == pytest.approx(120.0)
        assert client.available == pytest.approx(120.0)
        assert client.spent_committed == pytest.approx(client.settled_spend)

    def test_committed_spend_tracks_settlements_without_bulk_reconcile(self):
        client, _ = self._run_breach()
        # eager reconciliation already happened: nothing left to refund
        assert client.reconcile() == pytest.approx(0.0)

    def test_summary_reports_breach_refunds(self):
        client, _ = self._run_breach()
        summary = client.summary()
        assert summary["breach_refunds"] == pytest.approx(120.0)
        assert summary["contracts"] == 1

    def test_served_contracts_unaffected_by_eager_path(self):
        sim = Simulator()
        site = MarketSite(
            sim, site_id="s0", processors=1, heuristic=FirstPrice(),
            admission=SlackAdmission(threshold=-1e9, discount_rate=0.0),
        )
        client = BudgetedClient(sim, Broker(sites=[site]), budget_per_interval=100.0)
        client.submit(runtime=10.0, value=100.0, decay=2.0)
        sim.run()
        assert client.breach_refunds == 0.0
        assert client.reconcile() == pytest.approx(0.0)  # served at full price
