"""Unit tests for RandomStreams."""

import numpy as np
import pytest

from repro.sim import RandomStreams


class TestRandomStreams:
    def test_same_seed_and_name_reproduces(self):
        a = RandomStreams(42).get("arrivals").random(10)
        b = RandomStreams(42).get("arrivals").random(10)
        assert np.array_equal(a, b)

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        a = streams.get("arrivals").random(10)
        b = streams.get("durations").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").random(10)
        b = RandomStreams(2).get("x").random(10)
        assert not np.array_equal(a, b)

    def test_get_caches_generator_state(self):
        streams = RandomStreams(0)
        g1 = streams.get("s")
        g1.random(5)
        g2 = streams.get("s")
        assert g1 is g2  # sequential draws continue, not restart

    def test_fresh_restarts_stream(self):
        streams = RandomStreams(0)
        first = streams.fresh("s").random(5)
        streams.get("s").random(3)  # advance the cached one
        again = streams.fresh("s").random(5)
        assert np.array_equal(first, again)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("abc")
