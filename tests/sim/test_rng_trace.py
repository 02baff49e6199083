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

    def test_spawn_children_mutually_independent(self):
        children = RandomStreams(7).spawn("reps", 3)
        draws = [c.random(8) for c in children]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_spawn_reproducible(self):
        a = [g.random(4) for g in RandomStreams(7).spawn("reps", 2)]
        b = [g.random(4) for g in RandomStreams(7).spawn("reps", 2)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_derive_changes_seed_deterministically(self):
        base = RandomStreams(5)
        d1 = base.derive(1)
        d2 = base.derive(1)
        assert d1.seed == d2.seed != base.seed

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("abc")

    def test_spawn_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(0).spawn("x", -1)
