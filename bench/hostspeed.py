"""A yardstick for how fast the host is running right now.

The hosts this benchmark runs on drift: for tens of seconds at a time
the same cell takes 1.3× to 2× as long (a busy neighbour, not the
program).  A run is shorter than such a stretch, so medians over its
rounds cannot see it.  What can is a fixed piece of work that does not
change when the program does: :func:`sample` times one, before and
after every timed unit, and :func:`corrected` rescales the unit's wall
time to what it would have been at the reference pace
(:data:`NOMINAL_S`).  Every time the benchmark reports is corrected this
way; a record keeps the samples' median (``host_pace``) so the raw
times can be recovered.

The kernel mixes the two things the simulator spends its time on:
short numpy calls from a Python loop (admission probes on shallow
pools) and arithmetic over a few thousand elements (scoring deep
pools).  It allocates little, so the garbage collector does not make it
noisier than what it measures.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: One :func:`sample` on the reference host when nothing else runs.
NOMINAL_S = 0.018

_SHALLOW = np.arange(64.0)
_DEEP = np.random.default_rng(0).random((5, 4000))


def sample() -> float:
    """Seconds the fixed kernel takes right now."""
    started = time.perf_counter()
    total = 0.0
    for _ in range(2400):
        probe = np.append(_SHALLOW, 1.0)
        order = np.argsort(-probe, kind="stable")
        total += float(probe[order][:3].sum())
    arrival, runtime, remaining, value, decay = _DEEP
    for step in range(240):
        delay = np.maximum(0.0, step + remaining - arrival - runtime)
        gain = (value - delay * decay) / np.maximum(remaining, 1e-9)
        total += float(np.argmax(gain - decay.sum() * 1e-3))
    if total < 0:  # keeps the work observable; never true
        raise AssertionError(total)
    return time.perf_counter() - started


def corrected(wall_s: float, before_s: float, after_s: float) -> float:
    """*wall_s* rescaled to the reference pace, given the samples taken
    just before and just after it."""
    return wall_s * NOMINAL_S / (0.5 * (before_s + after_s))


def pace(samples: list[float]) -> float:
    """Median sample ÷ nominal: 1.0 on a quiet reference host, 2.0 when
    everything takes twice as long."""
    return statistics.median(samples) / NOMINAL_S
