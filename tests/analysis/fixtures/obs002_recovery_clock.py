# repro-lint: module=repro.live.recovery.fixture_example
"""OBS002 fixture: crash recovery is timestamp-passive despite living
under the wall-clock-allowlisted ``repro.live`` package.

Recovery replays journaled timestamps and takes ``now`` as a parameter;
reading a clock here would let recovered settlements drift from the
caller-chosen resume instant.  The passivity rule wins over the package
allowlist.
"""

import time


def resettle_all(contracts: list, journal) -> None:
    now = time.monotonic()  # expect: OBS002
    # recovery records the begin marker before re-settling, exactly
    # like repro.live.recovery
    journal.recovery(now, "begin")
    for contract in contracts:
        contract.settle_abandoned(now, release=0.0)


def resettle_all_correctly(contracts: list, journal, now: float) -> None:
    # the sanctioned shape: now arrives from the caller's clock.now
    journal.recovery(now, "begin")
    for contract in contracts:
        contract.settle_abandoned(now, release=0.0)
