"""Unit tests for the two workload distributions."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload import ExponentialDist, NormalDist
from repro.workload.distributions import make_distribution


def rng():
    return np.random.default_rng(7)


SAMPLE_N = 50_000


class TestMeans:
    @pytest.mark.parametrize(
        "dist",
        [
            ExponentialDist(100.0),
            NormalDist(100.0, cv=0.25),
            ExponentialDist(0.5),
            NormalDist(100.0, cv=0.0),
            NormalDist(6.25, cv=0.5),  # an inter-arrival mean at load 1
            NormalDist(1e4, cv=0.1),
        ],
    )
    def test_sample_mean_tracks_configured_mean(self, dist):
        samples = dist.sample(rng(), SAMPLE_N)
        assert samples.shape == (SAMPLE_N,)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.05)

    @pytest.mark.parametrize(
        "dist",
        [
            ExponentialDist(100.0),
            NormalDist(100.0, cv=0.5),
            ExponentialDist(1e-3),
            NormalDist(1.0, cv=1.0),  # a third of the mass is redrawn
        ],
    )
    def test_positive_support(self, dist):
        samples = dist.sample(rng(), SAMPLE_N)
        assert (samples > 0).all()

    def test_normal_cv_zero_degenerate(self):
        samples = NormalDist(42.0, cv=0.0).sample(rng(), 10)
        assert (samples == 42.0).all()


class TestValidation:
    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(WorkloadError):
            ExponentialDist(0.0)
        with pytest.raises(WorkloadError):
            ExponentialDist(float("nan"))

    def test_normal_rejects_negative_cv(self):
        with pytest.raises(WorkloadError):
            NormalDist(10.0, cv=-0.1)

    def test_negative_sample_size_rejected(self):
        with pytest.raises(WorkloadError):
            ExponentialDist(1.0).sample(rng(), -1)


class TestFactory:
    def test_make_by_name(self):
        assert isinstance(make_distribution("exponential", 10.0), ExponentialDist)
        assert isinstance(make_distribution("normal", 10.0, cv=0.1), NormalDist)

    def test_unknown_kind_rejected(self):
        for kind in ("weibull", "constant", "lognormal", "pareto"):
            with pytest.raises(WorkloadError):
                make_distribution(kind, 10.0)


class TestDeterminism:
    @pytest.mark.parametrize(
        "dist",
        [ExponentialDist(3.0), NormalDist(3.0), NormalDist(3.0, cv=1.0), NormalDist(3.0, cv=0.0)],
    )
    def test_same_rng_state_same_samples(self, dist):
        a = dist.sample(np.random.default_rng(11), 100)
        b = dist.sample(np.random.default_rng(11), 100)
        assert np.array_equal(a, b)
