"""Failover re-bidding on the plain broker, and the budgeted client's
breach reconciliation — the recovery paths end to end."""

import pytest

from repro.errors import MarketError
from repro.faults.restart import AbandonRestart
from repro.market import Broker, MarketSite
from repro.market.client import BudgetedClient
from repro.resilience import ResilienceManager
from repro.scheduling import FirstPrice
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.tasks import TaskBid


def make_site(sim, site_id, processors=1, **kwargs):
    kwargs.setdefault("admission", SlackAdmission(threshold=-1e9, discount_rate=0.0))
    return MarketSite(
        sim, site_id=site_id, processors=processors, heuristic=FirstPrice(), **kwargs
    )


def make_market(sim, n_sites=2, failover_budget=1, **site_kwargs):
    sites = [make_site(sim, f"s{i}", **site_kwargs) for i in range(n_sites)]
    broker = Broker(sites=sites)
    manager = ResilienceManager(broker, failover_budget)
    return sites, manager, broker


def make_bid(runtime=10.0, value=100.0, decay=2.0, bound=20.0, released_at=0.0):
    return TaskBid(
        runtime=runtime, value=value, decay=decay, bound=bound,
        client_id="c", released_at=released_at,
    )


class TestFailoverRebid:
    def _breach_first_contract(self, failover_budget=1, crash_at=5.0, n_sites=2):
        sim = Simulator()
        sites, manager, broker = make_market(
            sim, n_sites=n_sites, failover_budget=failover_budget,
            restart_policy=AbandonRestart(),
        )
        outcome = broker.negotiate(make_bid())
        assert outcome.contract is not None
        winner = next(s for s in sites if s.site_id == outcome.contract.site_id)
        sim.schedule(crash_at, winner.engine.crash_node, 0)
        sim.run()
        return sim, sites, manager, outcome

    def test_breach_triggers_rebid_on_surviving_site(self):
        sim, sites, manager, outcome = self._breach_first_contract()
        stats = manager.stats
        assert stats.breaches == 1
        assert stats.failovers_attempted == 1
        assert stats.failovers_contracted == 1
        assert stats.failovers_completed == 1
        # crash at t=5, re-bid completes at 15; value decays from release 0
        assert stats.value_recovered == pytest.approx(100.0 - 2.0 * 5.0)
        assert stats.value_lost_to_breach == pytest.approx(20.0)

    def test_failed_site_excluded_from_rebid(self):
        _, sites, manager, outcome = self._breach_first_contract()
        failed = outcome.contract.site_id
        survivor = next(s for s in sites if s.site_id != failed)
        assert len(survivor.contracts) == 1
        assert survivor.contracts[0].settled

    def test_rebid_asks_every_site_but_the_failed_one(self):
        """No site is gated: the re-bid is a plain round over the rest."""
        _, sites, manager, outcome = self._breach_first_contract(n_sites=3)
        failed = outcome.contract.site_id
        (lineage,) = manager.lineages
        rebid_contract = lineage.contracts[1]
        assert rebid_contract.site_id != failed
        asked = {s.site_id for s in sites if s.quotes_issued + s.quotes_declined == 2}
        assert asked == {s.site_id for s in sites} - {failed}
        assert manager.broker.negotiations == 2

    def test_every_contract_settles_exactly_once(self):
        _, sites, manager, _ = self._breach_first_contract()
        contracts = [c for s in sites for c in s.contracts]
        assert len(contracts) == 2  # original + failover
        assert all(c.settled for c in contracts)
        assert manager.double_completions == 0
        # the lineage, adopted at the breach, links both contracts
        (lineage,) = manager.lineages
        assert len(lineage.contracts) == 2
        assert lineage.completed == 1

    def test_rebid_value_decays_from_original_release(self):
        """A late crash leaves little remaining value; the re-bid still
        lands (floored at the bound) but recovers only what is left."""
        # crash at t=9.5: re-run completes at 19.5, delay 9.5, value 81
        _, _, manager, _ = self._breach_first_contract(crash_at=9.5)
        assert manager.stats.value_recovered == pytest.approx(100.0 - 2.0 * 9.5)

    def test_spent_budget_records_exhaustion(self):
        """The re-run breaches too: a one-re-bid budget is spent, so the
        lineage is exhausted and no third contract is sought."""
        sim = Simulator()
        sites, manager, broker = make_market(sim, restart_policy=AbandonRestart())
        outcome = broker.negotiate(make_bid())
        first = next(s for s in sites if s.site_id == outcome.contract.site_id)
        second = next(s for s in sites if s is not first)
        sim.schedule(5.0, first.engine.crash_node, 0)
        sim.schedule(7.0, second.engine.crash_node, 0)
        sim.run()
        assert manager.stats.breaches == 2
        assert manager.stats.failovers_attempted == 1
        assert manager.stats.lineages_exhausted == 1
        assert manager.stats.failovers_completed == 0
        assert sum(len(s.contracts) for s in sites) == 2

    def test_zero_budget_attaches_nothing(self):
        _, sites, manager, _ = self._breach_first_contract(failover_budget=0)
        assert all(not s.settlement_listeners for s in sites)
        assert manager.stats.breaches == 0
        assert manager.stats.failovers_attempted == 0
        assert manager.lineages == []
        assert sum(len(s.contracts) for s in sites) == 1

    def test_negative_budget_refused(self):
        sim = Simulator()
        with pytest.raises(MarketError, match="failover_budget"):
            make_market(sim, failover_budget=-1)


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
