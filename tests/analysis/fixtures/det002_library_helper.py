# repro-lint: module=repro.metrics.walltime
"""DET002 fixture: a wall-clock helper outside the sim path.

``repro.metrics`` is not sim-path code, yet a sim-path caller could
reach this helper.  DET002 therefore forbids a clock read in every
``repro.*`` module outside repro.obs, repro.live and repro.cli, and
flags it here, at its source, whoever calls it.
"""

import time


def stamp() -> float:
    return time.time()  # expect: DET002
