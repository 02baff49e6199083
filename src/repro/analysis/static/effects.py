"""The clock and RNG name tables: what counts as a purity effect.

The analyzer's only clock/RNG detector.  Every call in a file is
resolved through its import map (``np.random.default_rng`` →
``numpy.random.default_rng``) and looked up here; which module family
forbids which effect is the scope table in
:mod:`repro.analysis.static.modulemap`.
"""

from __future__ import annotations

from typing import Optional

#: reads the machine clock (``time.time`` and friends, ``datetime.now``)
WALL_CLOCK = "WALL_CLOCK"
#: draws from an unseeded global RNG (``random.*``, ``numpy.random.*``)
RNG = "RNG"

#: Qualified calls that read the machine clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Qualified-name prefixes whose *calls* constitute an RNG entry point.
RNG_PREFIXES = ("random.", "numpy.random.")


def purity_effect(qualified: Optional[str]) -> Optional[str]:
    """``WALL_CLOCK`` / ``RNG`` if calling *qualified* is one, else None."""
    if qualified is None:
        return None
    if qualified in WALL_CLOCK_CALLS:
        return WALL_CLOCK
    if qualified.startswith(RNG_PREFIXES):
        return RNG
    return None
