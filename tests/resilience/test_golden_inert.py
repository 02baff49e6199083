"""Bit-inertness of the resilience layer and determinism with failover.

A zero failover budget must cost nothing and change nothing: golden
figure bytes are reproduced with the package imported and a manager
built, and a zero-budget resilient market is outcome-identical to the
plain market built from the same parts.  With a budget, everything is a
pure function of the seed — two same-seed runs produce identical
recovery books, lineage by lineage.
"""

import json
import pathlib

import pytest

from repro.experiments.fig6 import run_fig6
from repro.faults.spec import FaultSpec
from repro.market import Broker, MarketSite
from repro.market.economy import MarketEconomy
from repro.resilience import ResilienceManager, driver, simulate_resilient_market
from repro.scheduling import FirstPrice, FirstReward
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.workload.generator import generate_trace
from repro.workload.millennium import economy_spec

GOLDEN = pathlib.Path(__file__).parent.parent / "faults" / "golden"


def canonical(result) -> str:
    payload = {"figure": result.figure, "rows": result.rows}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


class TestGoldenBytesWithResilienceLoaded:
    def test_fig6_byte_identical_with_package_configured(self):
        """Importing and instantiating the resilience layer (a full
        manager over throwaway sites) must leave the pre-resilience golden
        bytes untouched."""
        sim = Simulator()
        sites = [
            MarketSite(sim, site_id="warm", processors=1, heuristic=FirstPrice())
        ]
        ResilienceManager(Broker(sites=sites), failover_budget=2)
        res = run_fig6(
            n_jobs=400,
            seeds=(0, 1),
            load_factors=(0.5, 3.0),
            alphas=(0.0, 1.0),
        )
        assert canonical(res) == (GOLDEN / "fig6_quick.json").read_text()


def _market_fingerprint(sites, outcomes, sim):
    contracts = tuple(
        (c.site_id, c.promised_completion, c.actual_completion, c.actual_price)
        for site in sites
        for c in site.contracts
    )
    return (
        tuple(o.accepted for o in outcomes),
        contracts,
        tuple(s.revenue for s in sites),
        sim.now,
    )


class TestDisabledPathMatchesPlainMarket:
    N_SITES = 2
    PROCS = 4

    @pytest.fixture(autouse=True)
    def _small_market(self, monkeypatch):
        monkeypatch.setattr(driver, "N_SITES", self.N_SITES)
        monkeypatch.setattr(driver, "PROCESSORS_PER_SITE", self.PROCS)

    def _spec_and_trace(self):
        spec = economy_spec(
            n_jobs=120, value_skew=3.0, decay_skew=5.0, load_factor=1.5,
            processors=self.N_SITES * self.PROCS, penalty_bound=2.0,
        )
        return generate_trace(spec, seed=0)

    def _plain_market(self, trace):
        sim = Simulator()
        sites = [
            MarketSite(
                sim,
                site_id=f"site-{i}",
                processors=self.PROCS,
                heuristic=FirstReward(0.2, 0.01),
                admission=SlackAdmission(180.0, 0.01),
                discard_expired=True,
            )
            for i in range(self.N_SITES)
        ]
        economy = MarketEconomy(sim, Broker(sites=sites))
        economy.schedule_trace(trace)
        sim.run()
        return _market_fingerprint(sites, economy.outcomes, sim)

    def test_disabled_resilient_market_is_outcome_identical(self):
        trace = self._spec_and_trace()
        baseline = self._plain_market(trace)
        result = simulate_resilient_market(
            trace,
            heuristic_factory=lambda: FirstReward(0.2, 0.01),
            admission_factory=lambda: SlackAdmission(180.0, 0.01),
            failover_budget=0,
        )
        disabled = _market_fingerprint(
            result.sites, result.economy.outcomes, result.sim
        )
        assert disabled == baseline

    def test_zero_budget_is_inert(self):
        trace = self._spec_and_trace()
        result = simulate_resilient_market(
            trace,
            heuristic_factory=lambda: FirstReward(0.2, 0.01),
            failover_budget=0,
        )
        manager = result.manager
        assert type(manager.broker) is Broker
        assert manager.summary() == {key: 0 for key in manager.summary()}
        assert all(not s.settlement_listeners for s in result.sites)


class TestEnabledDeterminism:
    def _one_run(self):
        spec = economy_spec(
            n_jobs=150, value_skew=3.0, decay_skew=5.0, load_factor=1.5,
            processors=16, penalty_bound=2.0,
        )
        trace = generate_trace(spec, seed=3)
        return simulate_resilient_market(
            trace,
            heuristic_factory=lambda: FirstReward(0.2, 0.01),
            admission_factory=lambda: SlackAdmission(180.0, 0.01),
            failover_budget=2,
            faults=FaultSpec(mttf=300.0, mttr=100.0, restart="abandon"),
            fault_seed=3,
        )

    def test_same_seed_reproduces_recovery_books_exactly(self):
        first, second = self._one_run(), self._one_run()
        assert first.manager.summary() == second.manager.summary()
        assert first.total_revenue == second.total_revenue
        assert first.fault_stats.summary() == second.fault_stats.summary()

    def test_same_seed_same_failover_books(self):
        first, second = self._one_run(), self._one_run()

        def books(result):
            return [
                (
                    lineage.root_bid.runtime,
                    lineage.attempts,
                    lineage.completed,
                    [(c.site_id, c.actual_completion, c.actual_price)
                     for c in lineage.contracts],
                )
                for lineage in result.manager.lineages
            ]

        assert books(first) == books(second)
        # the run exercised the machinery at all (guards against a
        # vacuously-deterministic no-op chaos configuration)
        assert first.manager.stats.failovers_completed > 0


class TestChaosSweepGolden:
    """The fault-*on* fixed point for the market: ``repro resilience
    --n-jobs 300 --seeds 0`` as written by ``--out``, captured before the
    injector and the latent negotiator moved onto the kernel's coroutine
    driver."""

    def test_resilience_sweep_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        golden = pathlib.Path(__file__).parent / "golden" / "resilience_n300_s0.json"
        for workers in (1, 2):
            out = tmp_path / f"resilience-w{workers}.json"
            argv = ["resilience", "--n-jobs", "300", "--seeds", "0"]
            assert main([*argv, "--workers", str(workers), "--out", str(out)]) == 0
            capsys.readouterr()
            assert out.read_bytes() == golden.read_bytes(), f"workers={workers}"
