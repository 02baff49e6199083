# repro-lint: module=repro.scheduling.fixture_example
"""DET002 fixture: wall-clock reads inside a sim-path module."""

import time
from datetime import datetime
from time import perf_counter

from repro.sim import Simulator


def bad_timestamps() -> list[float]:
    stamps = [time.time()]  # expect: DET002
    stamps.append(perf_counter())  # expect: DET002
    stamps.append(time.monotonic())  # expect: DET002
    stamps.append(datetime.now().timestamp())  # expect: DET002
    return stamps


def good_timestamps(sim: Simulator) -> list[float]:
    # the sim clock is the only clock sim-path code may read
    stamps = [sim.now]
    stamps.append(sim.now + 5.0)
    # time.sleep is not a *read* (and would be its own kind of bug)
    return stamps


# module-level and class-body reads run at import time — still sim-path
IMPORTED_AT = time.time()  # expect: DET002


class StampedAtImport:
    created = time.time()  # expect: DET002
