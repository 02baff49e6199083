"""Tests for the elastic (reseller) task service."""

import hashlib

import numpy as np
import pytest

from repro.errors import ReproError
from repro.resource import ElasticSite, ProvisioningPolicy, ResourceProvider
from repro.scheduling import FirstPrice, FirstReward, PoolColumns
from repro.sim import Simulator
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction
from repro.workload import economy_spec, generate_trace


def make_task(arrival, runtime, value=100.0, decay=0.2):
    return Task(arrival, runtime, LinearDecayValueFunction(value, decay, 0.0))


def build(capacity=16, price=0.1, **policy_kwargs):
    sim = Simulator()
    provider = ResourceProvider(sim, capacity=capacity, unit_price=price)
    policy = ProvisioningPolicy(review_interval=10.0, **policy_kwargs)
    site = ElasticSite(sim, provider, FirstPrice(), policy=policy)
    return sim, provider, site


class TestPolicyValidation:
    def test_bounds(self):
        with pytest.raises(ReproError):
            ProvisioningPolicy(min_nodes=0)
        with pytest.raises(ReproError):
            ProvisioningPolicy(min_nodes=4, max_nodes=2)
        with pytest.raises(ReproError):
            ProvisioningPolicy(review_interval=0.0)
        with pytest.raises(ReproError):
            ProvisioningPolicy(margin=-1.0)

    def test_provider_must_cover_min_fleet(self):
        sim = Simulator()
        provider = ResourceProvider(sim, capacity=2, unit_price=0.1)
        with pytest.raises(ReproError):
            ElasticSite(sim, provider, policy=ProvisioningPolicy(min_nodes=4))


class TestElasticBehaviour:
    def test_starts_with_min_fleet(self):
        sim, provider, site = build()
        assert site.fleet_size == 1
        assert provider.leased_nodes == 1

    def test_grows_under_profitable_backlog(self):
        sim, provider, site = build()
        for _i in range(8):
            task = make_task(0.0, 100.0)
            sim.schedule_at(0.0, site.submit, task)
        sim.run()
        # the fleet grew during the run (a final-instant review may have
        # already returned idle nodes by the time the run ends)
        assert site.nodes_acquired > 1
        assert site.engine.ledger.completed == 8

    def test_ignores_backlog_cheaper_than_rent(self):
        # unit gain of queued work (~0.1) below rent*margin (5*1.2)
        sim, provider, site = build(price=5.0)
        for _i in range(8):
            task = make_task(0.0, 100.0, value=10.0, decay=0.01)
            sim.schedule_at(0.0, site.submit, task)
        sim.run()
        assert site.fleet_size == 1
        assert site.nodes_acquired == 1

    def test_shrinks_back_when_idle(self):
        sim, provider, site = build()
        for _i in range(8):
            sim.schedule_at(0.0, site.submit, make_task(0.0, 50.0))
        # a late straggler keeps the simulation alive past the drain so
        # review daemons get a chance to shrink the fleet
        sim.schedule_at(500.0, site.submit, make_task(500.0, 10.0))
        sim.run()
        assert site.nodes_returned > 0
        assert site.fleet_size < site.nodes_acquired

    def test_respects_max_nodes(self):
        sim, provider, site = build(max_nodes=3)
        for _i in range(20):
            sim.schedule_at(0.0, site.submit, make_task(0.0, 100.0))
        sim.run()
        assert site.fleet_size <= 3

    def test_respects_provider_stock(self):
        sim, provider, site = build(capacity=2)
        for _i in range(20):
            sim.schedule_at(0.0, site.submit, make_task(0.0, 100.0))
        sim.run()
        assert site.fleet_size <= 2

    def test_profit_accounting(self):
        sim, provider, site = build(price=0.05)
        for _i in range(6):
            sim.schedule_at(0.0, site.submit, make_task(0.0, 50.0))
        sim.run()
        rent = site.settle()
        assert rent > 0
        assert site.profit == pytest.approx(site.engine.ledger.total_yield - rent)
        assert provider.revenue == pytest.approx(rent)
        summary = site.summary()
        assert summary["profit"] == pytest.approx(site.profit)

    def test_elastic_beats_static_min_fleet_on_bursty_load(self):
        trace = generate_trace(
            economy_spec(n_jobs=150, load_factor=2.0, processors=4, penalty_bound=0.0),
            seed=2,
        )
        # static: stuck at 2 nodes
        from repro.site import simulate_site

        static = simulate_site(trace, FirstPrice(), processors=2)

        sim = Simulator()
        provider = ResourceProvider(sim, capacity=16, unit_price=0.01)
        site = ElasticSite(
            sim, provider, FirstPrice(),
            policy=ProvisioningPolicy(min_nodes=2, review_interval=20.0),
        )
        for task in trace.to_tasks():
            sim.schedule_at(task.arrival, site.submit, task)
        sim.run()
        site.settle()
        assert site.profit > static.total_yield


class TestWorthwhileBacklog:
    """The pricer's count is read off scores: a threshold on values, so
    the affine scoring path must leave it where the row form puts it."""

    @staticmethod
    def review_counts(heuristic):
        trace = generate_trace(
            economy_spec(n_jobs=300, load_factor=2.0, processors=4, penalty_bound=None),
            seed=3,
        )
        sim = Simulator()
        provider = ResourceProvider(sim, capacity=16, unit_price=0.01)
        site = ElasticSite(
            sim, provider, heuristic,
            policy=ProvisioningPolicy(min_nodes=2, review_interval=20.0),
        )
        counts, general = [], []
        count = site._worthwhile_backlog

        def noted() -> int:
            counts.append(count())
            if site.engine.pool:
                cols = site.engine.pool.columns()
                hand_built = PoolColumns(
                    cols.arrival, cols.runtime, cols.remaining, cols.value,
                    cols.decay, cols.bound,
                )  # no pool behind it: the row form
                gains = FirstPrice().scores(hand_built, sim.now)
                threshold = provider.unit_price * site.policy.margin
                general.append(int(np.count_nonzero(gains > threshold)))
            else:
                general.append(0)
            return counts[-1]

        site._worthwhile_backlog = noted
        for task in trace.to_tasks():
            sim.schedule_at(task.arrival, site.submit, task)
        sim.run()
        return counts, general, site

    @pytest.mark.parametrize(
        "heuristic, digest",
        [
            # the pricer shares the site heuristic's key: both score affinely
            (FirstPrice(), "f516a078fd396bfe"),
            # another key: the site binds the rows, the pricer goes general
            (FirstReward(0.3, 0.01), "80f18e39dded23e7"),
        ],
    )
    def test_counts_are_unchanged_on_a_fixed_seed(self, heuristic, digest):
        counts, general, _ = self.review_counts(heuristic)
        assert counts == general
        assert len(counts) == 192
        assert hashlib.sha256(repr(counts).encode()).hexdigest()[:16] == digest
