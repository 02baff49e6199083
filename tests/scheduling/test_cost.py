"""Unit tests for the O(n log n) opportunity-cost kernel (Eq. 4–5)."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.scheduling.cost import opportunity_costs
from tests.oracles import opportunity_costs_naive


class TestAgainstNaiveOracle:
    def test_random_mixed_horizons(self):
        rng = np.random.default_rng(0)
        n = 200
        remaining = rng.exponential(10.0, n)
        decay = rng.exponential(1.0, n)
        horizons = rng.exponential(20.0, n)
        horizons[rng.random(n) < 0.3] = np.inf   # unbounded subset
        horizons[rng.random(n) < 0.1] = 0.0      # expired subset
        decay[horizons == 0.0] = 0.0             # expired => effective decay 0
        fast = opportunity_costs(remaining, decay, horizons)
        slow = opportunity_costs_naive(remaining, decay, horizons)
        assert np.allclose(fast, slow)

    def test_all_unbounded_reduces_to_eq5(self):
        rng = np.random.default_rng(1)
        n = 50
        remaining = rng.exponential(10.0, n)
        decay = rng.exponential(1.0, n)
        horizons = np.full(n, np.inf)
        cost = opportunity_costs(remaining, decay, horizons)
        # Eq. 5: cost_i / RPT_i = sum_j d_j - d_i
        expected = remaining * (decay.sum() - decay)
        assert np.allclose(cost, expected)

    def test_all_expired_costs_nothing(self):
        n = 10
        cost = opportunity_costs(np.ones(n), np.zeros(n), np.zeros(n))
        assert np.allclose(cost, 0.0)

    def test_two_task_hand_computed(self):
        # task0: R=5; task1: horizon 3 decay 2 -> cost0 = 2*min(5,3)=6
        # task1: R=4; task0: horizon inf decay 1 -> cost1 = 1*4=4
        remaining = np.array([5.0, 4.0])
        decay = np.array([1.0, 2.0])
        horizons = np.array([np.inf, 3.0])
        cost = opportunity_costs(remaining, decay, horizons)
        assert np.allclose(cost, [6.0, 4.0])

    def test_single_task_has_no_competitors(self):
        cost = opportunity_costs(np.array([5.0]), np.array([2.0]), np.array([np.inf]))
        assert cost[0] == 0.0

    def test_empty(self):
        assert len(opportunity_costs(np.empty(0), np.empty(0), np.empty(0))) == 0


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(SchedulingError):
            opportunity_costs(np.ones(2), np.ones(3), np.ones(2))

    def test_negative_inputs_rejected(self):
        with pytest.raises(SchedulingError):
            opportunity_costs(np.array([-1.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(SchedulingError):
            opportunity_costs(np.array([1.0]), np.array([-1.0]), np.array([1.0]))
        with pytest.raises(SchedulingError):
            opportunity_costs(np.array([1.0]), np.array([1.0]), np.array([-1.0]))


class TestScaling:
    def test_cost_monotone_in_remaining(self):
        # a longer candidate run can never cost less
        rng = np.random.default_rng(2)
        n = 100
        decay = rng.exponential(1.0, n)
        horizons = rng.exponential(20.0, n)
        short = opportunity_costs(np.full(n, 1.0), decay, horizons)
        long = opportunity_costs(np.full(n, 50.0), decay, horizons)
        assert (long >= short - 1e-12).all()

    def test_large_n_is_fast_enough(self):
        # smoke: 20k tasks should take well under a second
        rng = np.random.default_rng(3)
        n = 20_000
        cost = opportunity_costs(
            rng.exponential(10.0, n), rng.exponential(1.0, n), rng.exponential(5.0, n)
        )
        assert cost.shape == (n,)
        assert np.isfinite(cost).all()
