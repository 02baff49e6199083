"""Live service mode: the market on the wall clock.

The sim reproduces the paper; this package *runs* it.  The same broker,
admission control, scheduling heuristics, and contract settlement that
drive the discrete-event experiments are hosted on an asyncio event
loop against real time — tasks execute as actual subprocesses, bids
arrive over HTTP, and every quantity (slack, quotes, prices, penalties)
is computed by the shared code, not a re-implementation.

Modules
-------
clock
    :class:`WallClock` (monotonic wall time in market units) and
    :class:`FrozenClock` (the test double), both satisfying the shared
    :class:`~repro.sim.clock.Clock` protocol.
config
    Frozen, validated service configuration.
api
    JSON wire format: bid validation in, status documents out.
executor
    Real subprocess execution — concurrency throttle, status polling,
    timeout kill.
site
    :class:`LiveSite` — a ``MarketSite`` built with the service's clock,
    an executor and the live restart budget; the site code is the
    simulator's, the executor is the one seam.
service
    :class:`LiveService` — broker + sites, intake, write-ahead intents,
    drain; runs each started task through the subprocess executor.
httpd
    The stdlib asyncio HTTP/1.1 front end.
serve
    The ``repro serve`` CLI entry point with graceful SIGTERM drain.
"""

from repro.live.api import API_VERSION, ApiError, BidRequest, parse_bid, parse_bid_body
from repro.live.clock import FrozenClock, WallClock
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.executor import ExecutionReport, SubprocessExecutor
from repro.live.service import LiveRecord, LiveService
from repro.live.site import LiveSite

__all__ = [
    "API_VERSION",
    "ApiError",
    "BidRequest",
    "ExecutionReport",
    "FrozenClock",
    "LiveConfig",
    "LiveRecord",
    "LiveService",
    "LiveSite",
    "LiveSiteSpec",
    "SubprocessExecutor",
    "WallClock",
    "parse_bid",
    "parse_bid_body",
]
