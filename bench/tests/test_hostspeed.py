"""The host-pace yardstick and its correction arithmetic."""

import pytest

from bench import hostspeed


def test_correction_rescales_to_the_reference_pace():
    nominal = hostspeed.NOMINAL_S
    # the host ran at exactly the reference pace: nothing changes
    assert hostspeed.corrected(2.0, nominal, nominal) == pytest.approx(2.0)
    # everything took twice as long around the unit: halve its wall
    assert hostspeed.corrected(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    # pace changed during the unit: the two samples are averaged
    assert hostspeed.corrected(3.0, nominal, 2 * nominal) == pytest.approx(2.0)


def test_pace_is_the_median_sample_over_nominal():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.pace([nominal, 9 * nominal, 2 * nominal]) == pytest.approx(2.0)


def test_sample_times_a_fixed_amount_of_work():
    samples = [hostspeed.sample() for _ in range(5)]
    assert all(s > 0 for s in samples)
    # same work every time: the fastest and the median are close even on a busy host
    assert min(samples) > 0.2 * sorted(samples)[2]
