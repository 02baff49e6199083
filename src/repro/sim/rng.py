"""Named, independently-seeded random streams.

Reproducibility discipline for the whole library: every experiment takes
one root seed; every component that needs randomness asks a
:class:`RandomStreams` for a *named* stream.  Streams are derived with
``numpy.random.SeedSequence`` spawning keyed by the stream name, so

* the same (seed, name) pair always yields the same stream,
* distinct names yield statistically independent streams, and
* adding a new consumer does not perturb existing streams (unlike a
  single shared generator, where any extra draw shifts everything after
  it).
"""

from __future__ import annotations

import zlib

import numpy as np


class RandomStreams:
    """Factory of named, reproducible ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    @staticmethod
    def _name_key(name: str) -> int:
        # stable 32-bit key for the stream name (crc32 is deterministic
        # across processes/platforms, unlike hash())
        return zlib.crc32(name.encode("utf-8"))

    def get(self, name: str) -> np.random.Generator:
        """The generator for *name*, created on first use and cached.

        Repeated calls return the *same* generator object, so draws from a
        named stream are sequential within a RandomStreams instance.
        """
        gen = self._cache.get(name)
        if gen is None:
            gen = self.fresh(name)
            self._cache[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """A brand-new generator for (seed, name), independent of the cache.

        Use when a component needs a stream whose state must not be
        shared — e.g. re-running the same workload generation twice.
        """
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self._name_key(name),))
        return np.random.default_rng(seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._cache)})"
