# repro-lint: module=repro.workload.fixture_example
"""DET001 fixture: RNG entry points outside repro.sim.rng.

Each ``# expect: CODE`` comment declares every diagnostic the analyzer
must report on that physical line; lines without one must stay clean.
"""

import random
import random as stdlib_rng
from random import gauss

import numpy as np
from numpy.random import default_rng

from repro.sim.rng import RandomStreams


def bad_draws(n: int) -> list[float]:
    draws = [random.random() for _ in range(n)]  # expect: DET001
    draws.append(stdlib_rng.uniform(0.0, 1.0))  # expect: DET001
    draws.append(gauss(0.0, 1.0))  # expect: DET001
    draws.append(float(np.random.normal()))  # expect: DET001
    generator = default_rng(0)  # expect: DET001
    draws.append(float(generator.normal()))
    return draws


def good_draws(streams: RandomStreams, n: int) -> list[float]:
    # the sanctioned path: a named stream from the root-seeded factory
    stream = streams.get("workload.fixture")
    values = [float(stream.uniform()) for _ in range(n)]
    # object attributes that merely *look* like RNG modules don't count
    values.append(float(stream.random()))
    return values


def annotations_only(generator: np.random.Generator) -> np.random.Generator:
    # referencing numpy.random types without calling them is fine
    return generator


# module-level and class-body code is scanned too: the rule reads every
# call in the file, not only those inside a function the call graph indexes
random.seed(0)  # expect: DET001


class SeededAtImport:
    random.seed(0)  # expect: DET001
