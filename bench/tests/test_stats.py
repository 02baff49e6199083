"""The percentile and median-of-rounds estimators."""

import math

import pytest

from bench import stats


def test_percentile_interpolates_like_numpy_default():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 25) == pytest.approx(1.75)
    assert stats.percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_unit_medians_shrug_off_one_slow_round():
    rounds = [
        {"a": 1.0, "b": 10.0},
        {"a": 1.1, "b": 10.2},
        {"a": 5.0, "b": 50.0},  # the host stalled for this whole round
        {"a": 0.9, "b": 9.8},
        {"a": 1.0, "b": 10.0},
    ]
    medians = stats.unit_medians(rounds)
    assert medians == {"a": 1.0, "b": 10.0}
    assert stats.sum_of_medians(rounds, ["a", "b"]) == 11.0
    assert stats.sum_of_medians(rounds, ["b"]) == 10.0


def test_unit_medians_require_the_same_units_every_round():
    with pytest.raises(ValueError):
        stats.unit_medians([{"a": 1.0}, {"b": 1.0}])
    with pytest.raises(ValueError):
        stats.unit_medians([])


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, mid, q3 = stats.quartiles(values)
    assert mid == 14.5
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.quartile_spread([3.0]) == 0.0
    assert stats.quartile_spread([-1.0, 0.0, 1.0]) == math.inf
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
