"""Unit tests for linear-decay value functions (Eq. 1 / Fig. 2)."""

import math

import pytest

from repro.errors import ValueFunctionError
from repro.valuefn import LinearDecayValueFunction


class TestConstruction:
    def test_basic_fields(self):
        vf = LinearDecayValueFunction(100.0, 2.0, 20.0)
        assert vf.value == 100.0
        assert vf.decay == 2.0
        assert vf.penalty_bound == 20.0
        assert vf.bounded

    def test_unbounded_default(self):
        vf = LinearDecayValueFunction(100.0, 2.0)
        assert vf.penalty_bound is None
        assert not vf.bounded

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueFunctionError):
            LinearDecayValueFunction(math.inf, 1.0)
        with pytest.raises(ValueFunctionError):
            LinearDecayValueFunction(math.nan, 1.0)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueFunctionError):
            LinearDecayValueFunction(100.0, -1.0)

    def test_bound_above_value_rejected(self):
        # floor (-bound) above max value is nonsensical
        with pytest.raises(ValueFunctionError):
            LinearDecayValueFunction(100.0, 1.0, penalty_bound=-150.0)

    def test_nonfinite_bound_rejected(self):
        with pytest.raises(ValueFunctionError):
            LinearDecayValueFunction(100.0, 1.0, penalty_bound=math.inf)

    def test_equality_and_hash(self):
        a = LinearDecayValueFunction(10.0, 1.0, 0.0)
        b = LinearDecayValueFunction(10.0, 1.0, 0.0)
        c = LinearDecayValueFunction(10.0, 1.0)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestYield:
    def test_zero_delay_gives_max_value(self):
        vf = LinearDecayValueFunction(100.0, 2.0)
        assert vf.yield_at(0.0) == 100.0
        assert vf.max_value == 100.0

    def test_linear_decay(self):
        vf = LinearDecayValueFunction(100.0, 2.0)
        assert vf.yield_at(10.0) == 80.0
        assert vf.yield_at(50.0) == 0.0

    def test_unbounded_goes_arbitrarily_negative(self):
        vf = LinearDecayValueFunction(100.0, 2.0)
        assert vf.yield_at(1000.0) == pytest.approx(-1900.0)
        assert vf.floor == -math.inf

    def test_bounded_floors_at_minus_bound(self):
        vf = LinearDecayValueFunction(100.0, 2.0, penalty_bound=20.0)
        assert vf.yield_at(60.0) == -20.0
        assert vf.yield_at(1e9) == -20.0
        assert vf.floor == -20.0

    def test_millennium_bound_zero(self):
        vf = LinearDecayValueFunction(100.0, 2.0, penalty_bound=0.0)
        assert vf.yield_at(49.0) == pytest.approx(2.0)
        assert vf.yield_at(50.0) == 0.0
        assert vf.yield_at(51.0) == 0.0
        assert vf.floor == 0.0

    def test_negative_delay_rejected(self):
        vf = LinearDecayValueFunction(100.0, 2.0)
        with pytest.raises(ValueFunctionError):
            vf.yield_at(-1.0)

    def test_zero_decay_never_decays(self):
        vf = LinearDecayValueFunction(100.0, 0.0)
        assert vf.yield_at(1e9) == 100.0


class TestExpiration:
    def test_expiration_delay_bounded(self):
        vf = LinearDecayValueFunction(100.0, 2.0, penalty_bound=20.0)
        assert vf.expiration_delay == 60.0

    def test_expiration_delay_bound_zero(self):
        vf = LinearDecayValueFunction(100.0, 2.0, penalty_bound=0.0)
        assert vf.expiration_delay == 50.0

    def test_expiration_infinite_when_unbounded(self):
        vf = LinearDecayValueFunction(100.0, 2.0)
        assert vf.expiration_delay == math.inf
        assert not vf.is_expired(1e12)

    def test_is_expired(self):
        vf = LinearDecayValueFunction(100.0, 2.0, penalty_bound=0.0)
        assert not vf.is_expired(49.0)
        assert vf.is_expired(50.0)
        assert vf.is_expired(51.0)

    def test_remaining_decay_horizon(self):
        vf = LinearDecayValueFunction(100.0, 2.0, penalty_bound=0.0)
        assert vf.remaining_decay_horizon(0.0) == 50.0
        assert vf.remaining_decay_horizon(30.0) == 20.0
        assert vf.remaining_decay_horizon(80.0) == 0.0

    def test_remaining_horizon_infinite_when_unbounded(self):
        vf = LinearDecayValueFunction(100.0, 2.0)
        assert vf.remaining_decay_horizon(12.0) == math.inf

    def test_decay_at_drops_to_zero_after_expiry(self):
        vf = LinearDecayValueFunction(100.0, 2.0, penalty_bound=0.0)
        assert vf.decay_at(10.0) == 2.0
        assert vf.decay_at(50.0) == 0.0

    def test_decay_at_constant_when_unbounded(self):
        vf = LinearDecayValueFunction(100.0, 2.0)
        assert vf.decay_at(1e9) == 2.0


class TestVectorizedKernel:
    def test_as_tuple_and_bound_or_inf(self):
        vf = LinearDecayValueFunction(10.0, 1.0)
        assert vf.as_tuple() == (10.0, 1.0, None)
        assert vf.bound_or_inf() == math.inf
        bounded = LinearDecayValueFunction(10.0, 1.0, 3.0)
        assert bounded.bound_or_inf() == 3.0
