"""Configuration for the live service.

Frozen dataclasses, validated at construction — the same style as the
experiment configs.  Everything is expressed in market time units
except the explicitly wall-clock knobs (``poll_interval``,
``drain_grace``), which are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LiveServiceError

#: Heuristic parameters as a hashable tuple of (name, value) pairs so
#: site specs stay frozen/comparable; ``dict(spec.heuristic_params)``
#: at build time.
HeuristicParams = tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class LiveSiteSpec:
    """One seller in the live market.

    Parameters mirror the sim-side ``MarketSite`` knobs that make sense
    on the wall clock: capacity, scheduling heuristic, slack threshold.
    """

    site_id: str = "live-0"
    slots: int = 2
    heuristic: str = "firstreward"
    heuristic_params: HeuristicParams = (("alpha", 0.3), ("discount_rate", 0.01))
    threshold: float = 180.0
    discount_rate: float = 0.01

    def __post_init__(self) -> None:
        if not self.site_id:
            raise LiveServiceError("site_id must be non-empty")
        if self.slots < 1:
            raise LiveServiceError(f"slots must be >= 1, got {self.slots!r}")
        if math.isnan(self.threshold):
            raise LiveServiceError("slack threshold must not be NaN")
        if not self.discount_rate >= 0:
            raise LiveServiceError(
                f"discount_rate must be >= 0, got {self.discount_rate!r}"
            )


@dataclass(frozen=True)
class LiveConfig:
    """Full service configuration for ``repro serve``."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is printed and exported
    rate: float = 60.0  # time units per wall second
    sites: tuple[LiveSiteSpec, ...] = (LiveSiteSpec(),)
    strategy: str = "best-yield"
    #: kill a subprocess once it has run for timeout_factor × the task's
    #: declared runtime (units); 0 disables the watchdog
    timeout_factor: float = 10.0
    #: crash/kill requeues before a task is abandoned
    max_restarts: int = 1
    #: executor poll cadence, wall seconds
    poll_interval: float = 0.05
    #: wall seconds to wait for in-flight work at shutdown before the
    #: remaining subprocesses are killed and their contracts abandoned
    drain_grace: float = 30.0
    #: refuse new bids with 429 once this many tasks are queued across
    #: all sites (0 disables shedding) — the backpressure valve that
    #: keeps the executor from saturating under overload
    queue_watermark: int = 0
    #: Retry-After hint (wall seconds) on 429 shed and 503 drain answers
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise LiveServiceError(f"port must be in [0, 65535], got {self.port!r}")
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise LiveServiceError(f"rate must be finite and > 0, got {self.rate!r}")
        if not self.sites:
            raise LiveServiceError("at least one site spec is required")
        ids = [s.site_id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise LiveServiceError(f"duplicate site ids: {ids}")
        if self.timeout_factor < 0:
            raise LiveServiceError(
                f"timeout_factor must be >= 0, got {self.timeout_factor!r}"
            )
        if self.max_restarts < 0:
            raise LiveServiceError(
                f"max_restarts must be >= 0, got {self.max_restarts!r}"
            )
        if not self.poll_interval > 0:
            raise LiveServiceError(
                f"poll_interval must be > 0, got {self.poll_interval!r}"
            )
        if self.drain_grace < 0:
            raise LiveServiceError(
                f"drain_grace must be >= 0, got {self.drain_grace!r}"
            )
        if self.queue_watermark < 0:
            raise LiveServiceError(
                f"queue_watermark must be >= 0, got {self.queue_watermark!r}"
            )
        if not self.retry_after_s > 0:
            raise LiveServiceError(
                f"retry_after_s must be > 0, got {self.retry_after_s!r}"
            )


def default_config(**overrides) -> LiveConfig:
    """A LiveConfig with keyword overrides (test convenience)."""
    return LiveConfig(**overrides)
