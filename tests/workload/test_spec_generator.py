"""Unit tests for workload specs, calibration, and trace generation."""

import math

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload import (
    BimodalSpec,
    WorkloadSpec,
    economy_spec,
    generate_trace,
    millennium_spec,
)
from repro.workload.distributions import ExponentialDist
from repro.workload.spec import default_decay_spec


class TestBimodalSpec:
    def test_means(self):
        spec = BimodalSpec(low_mean=1.0, skew=4.0, high_fraction=0.2)
        assert spec.high_mean == 4.0

    def test_sampling_class_fractions_and_means(self):
        spec = BimodalSpec(low_mean=1.0, skew=9.0, high_fraction=0.2, cv=0.1)
        values, is_high = spec.sample(np.random.default_rng(3), 50_000)
        assert is_high.mean() == pytest.approx(0.2, abs=0.01)
        assert values[is_high].mean() == pytest.approx(9.0, rel=0.05)
        assert values[~is_high].mean() == pytest.approx(1.0, rel=0.05)
        assert (values > 0).all()

    def test_skew_one_is_single_class(self):
        spec = BimodalSpec(low_mean=2.0, skew=1.0, cv=0.0)
        values, _ = spec.sample(np.random.default_rng(0), 100)
        assert (values == 2.0).all()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            BimodalSpec(low_mean=0.0)
        with pytest.raises(WorkloadError):
            BimodalSpec(low_mean=1.0, skew=0.5)
        with pytest.raises(WorkloadError):
            BimodalSpec(low_mean=1.0, high_fraction=1.5)
        with pytest.raises(WorkloadError):
            BimodalSpec(low_mean=1.0, cv=-1.0)

    def test_default_decay_spec_horizon_semantics(self):
        # low-class decay mean = unit value / horizon
        spec = default_decay_spec(value_low_mean=1.0, horizon=4.0)
        assert spec.low_mean == pytest.approx(0.25)
        with pytest.raises(WorkloadError):
            default_decay_spec(horizon=0.0)


class TestLoadCalibration:
    def test_interarrival_mean_formula(self):
        spec = WorkloadSpec(
            n_jobs=100,
            processors=10,
            load_factor=2.0,
            duration=ExponentialDist(50.0),
            batch_size=4,
        )
        # work per batch = 4*50; capacity = 10/unit time; load 2
        assert spec.interarrival_mean == pytest.approx(4 * 50.0 / (10 * 2.0))

    def test_realized_load_tracks_target(self):
        for load in [0.5, 1.0, 2.0]:
            spec = economy_spec(n_jobs=4000, load_factor=load)
            trace = generate_trace(spec, seed=1)
            # requested work over capacity across the arrival span plus one
            # mean runtime
            horizon = trace.span + float(trace.runtime.mean())
            realized = trace.total_work / (spec.processors * horizon)
            assert realized == pytest.approx(load, rel=0.1)

    def test_with_load_factor_preserves_everything_else(self):
        spec = economy_spec(load_factor=1.0)
        heavier = economy_spec(load_factor=3.0)
        assert heavier.load_factor == 3.0
        assert heavier.value == spec.value
        assert heavier.interarrival_mean == pytest.approx(spec.interarrival_mean / 3.0)

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(n_jobs=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(processors=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(load_factor=0.0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(batch_size=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(penalty_bound=-1.0)


class TestGeneration:
    def test_deterministic_per_seed(self):
        spec = economy_spec(n_jobs=200)
        a = generate_trace(spec, seed=5)
        b = generate_trace(spec, seed=5)
        c = generate_trace(spec, seed=6)
        assert np.array_equal(a.arrival, b.arrival)
        assert np.array_equal(a.value, b.value)
        assert not np.array_equal(a.value, c.value)

    def test_job_count(self):
        trace = generate_trace(economy_spec(n_jobs=123), seed=0)
        assert len(trace) == 123

    def test_millennium_batches_share_arrival_times(self):
        trace = generate_trace(millennium_spec(n_jobs=160), seed=0)
        arrivals = trace.arrival
        # 10 batches of 16
        assert len(np.unique(arrivals)) == 10
        for batch_start in range(0, 160, 16):
            batch = arrivals[batch_start : batch_start + 16]
            assert (batch == batch[0]).all()

    def test_millennium_uniform_decay(self):
        trace = generate_trace(millennium_spec(n_jobs=100), seed=0)
        assert np.allclose(trace.decay, trace.decay[0])

    def test_millennium_bounded_at_zero(self):
        trace = generate_trace(millennium_spec(n_jobs=50), seed=0)
        assert (trace.bound == 0.0).all()

    def test_economy_unbounded_by_default(self):
        trace = generate_trace(economy_spec(n_jobs=50), seed=0)
        assert np.isinf(trace.bound).all()

    def test_value_proportional_to_runtime_within_classes(self):
        # unit value distribution is independent of runtime, so value/runtime
        # has the configured mixture mean
        spec = economy_spec(n_jobs=20_000, value_skew=3.0)
        trace = generate_trace(spec, seed=2)
        unit = trace.value / trace.runtime
        v = spec.value
        mixture_mean = (1 - v.high_fraction) * v.low_mean + v.high_fraction * v.high_mean
        assert unit.mean() == pytest.approx(mixture_mean, rel=0.05)

    def test_value_skew_shows_up_in_trace(self):
        low = generate_trace(economy_spec(n_jobs=5000, value_skew=1.0), seed=3)
        high = generate_trace(economy_spec(n_jobs=5000, value_skew=9.0), seed=3)
        assert high.value_skew_realized() > low.value_skew_realized() + 2.0

    def test_first_arrival_at_zero(self):
        trace = generate_trace(economy_spec(n_jobs=10), seed=0)
        assert trace.arrival[0] == 0.0

    def test_decay_skew_raises_mean_decay(self):
        flat = generate_trace(economy_spec(n_jobs=5000, decay_skew=1.0), seed=4)
        skewed = generate_trace(economy_spec(n_jobs=5000, decay_skew=7.0), seed=4)
        assert skewed.decay.mean() > flat.decay.mean() * 1.5

    def test_describe_mentions_key_parameters(self):
        desc = economy_spec(value_skew=3.0, decay_skew=5.0).describe()
        assert "vskew=3" in desc and "dskew=5" in desc and "unbounded" in desc
