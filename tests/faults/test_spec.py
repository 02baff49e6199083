"""FaultSpec validation, sampling, and the survival model."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import SchedulingError, SimulationError
from repro.faults import ExponentialSurvival, FaultSpec
from repro.sim.rng import RandomStreams


def spec(**kwargs):
    defaults = dict(mttf=1000.0, mttr=50.0)
    defaults.update(kwargs)
    return FaultSpec(**defaults)


class TestValidation:
    def test_defaults_are_valid(self):
        assert spec().restart == "requeue"

    def test_describes_failures_and_nothing_else(self):
        """Pricing is policy (a wrapped heuristic, an admission
        parameter), "no faults" is ``faults=None``: the spec has no
        switch for either."""
        assert [f.name for f in dataclasses.fields(FaultSpec)] == [
            "mttf", "mttr", "restart",
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            dict(mttf=0.0),
            dict(mttf=-5.0),
            dict(mttf=math.nan),
            dict(mttr=-1.0),
            dict(mttr=math.inf),
            dict(mttr=math.nan),
            dict(mttr=-math.inf),
            dict(mttf=-math.inf),
            dict(restart="reboot"),
            dict(restart="checkpoint"),  # gone with its policy
            dict(restart=""),
            dict(restart=None),
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(SimulationError):
            spec(**bad)

    def test_infinite_mttf_is_legal(self):
        assert spec(mttf=math.inf).mttf == math.inf

    @pytest.mark.parametrize(
        "config, field",
        [(spec(), "mttf")],
        ids=["FaultSpec"],
    )
    def test_configs_refuse_assignment(self, config, field):
        """Frozen configs fail loudly on the offending line — the runtime
        guard the removed lint rule CFG001 duplicated."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, getattr(config, field))


class TestSampling:
    def test_exponential_mean_roughly_mttf(self):
        s = spec(mttf=100.0)
        rng = np.random.default_rng(0)
        draws = [s.draw_ttf(rng) for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(100.0, rel=0.1)

    def test_common_random_numbers_scale_exactly(self):
        """Halving MTTF halves every draw — the CRN coupling the MTTF
        sweeps rely on."""
        a = [spec(mttf=1000.0).draw_ttf(np.random.default_rng(7)) for _ in range(1)]
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        s1, s2 = spec(mttf=1000.0), spec(mttf=500.0)
        for _ in range(50):
            assert s2.draw_ttf(rng2) == pytest.approx(s1.draw_ttf(rng1) / 2.0)
        assert a  # silence unused warning

    def test_infinite_mttf_draws_inf_but_consumes_stream(self):
        """mttf=inf must advance the RNG exactly like a finite mttf, so
        toggling faults on one sweep point cannot shift another's draws."""
        finite, infinite = spec(mttf=10.0), spec(mttf=math.inf)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        assert math.isinf(infinite.draw_ttf(rng_a))
        finite.draw_ttf(rng_b)
        assert rng_a.random() == rng_b.random()

    def test_zero_mttr_gives_zero_repair_time(self):
        s = spec(mttr=0.0)
        assert s.draw_ttr(np.random.default_rng(0)) == 0.0

    def test_named_streams_are_stable(self):
        a = RandomStreams(5).get("fault:node:3").random()
        b = RandomStreams(5).get("fault:node:3").random()
        assert a == b


class TestSurvival:
    def test_exponential_values(self):
        s = ExponentialSurvival(100.0)
        assert s.p_survive(0.0) == pytest.approx(1.0)
        assert s.p_survive(100.0) == pytest.approx(math.exp(-1.0))

    def test_exponential_vectorized(self):
        s = ExponentialSurvival(50.0)
        probs = s.p_survive(np.array([0.0, 50.0, 100.0]))
        assert probs == pytest.approx([1.0, math.exp(-1), math.exp(-2)])

    def test_infinite_mttf_never_fails(self):
        s = ExponentialSurvival(math.inf)
        assert np.all(s.p_survive(np.array([1.0, 1e12])) == 1.0)

    def test_rejects_bad_mttf(self):
        with pytest.raises((SimulationError, SchedulingError)):
            ExponentialSurvival(0.0)
