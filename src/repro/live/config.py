"""Configuration for the live service.

Frozen dataclasses, validated at construction — the same style as the
experiment configs.  Everything is expressed in market time units
except the explicitly wall-clock knob ``drain_grace``, which is seconds.
The market's policy beyond the slack threshold is fixed where it is
read: every site schedules by FirstReward and requeues a failed run
``MAX_RESTARTS`` times (:mod:`repro.live.site`); the broker picks the
best-yield quote, and sheds and drains hint ``RETRY_AFTER_S``
(:mod:`repro.live.service`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LiveServiceError


@dataclass(frozen=True)
class LiveSiteSpec:
    """One seller in the live market: its capacity and slack threshold."""

    site_id: str = "live-0"
    slots: int = 2
    threshold: float = 180.0

    def __post_init__(self) -> None:
        if not self.site_id:
            raise LiveServiceError("site_id must be non-empty")
        if self.slots < 1:
            raise LiveServiceError(f"slots must be >= 1, got {self.slots!r}")
        if math.isnan(self.threshold):
            raise LiveServiceError("slack threshold must not be NaN")


@dataclass(frozen=True)
class LiveConfig:
    """Full service configuration for ``repro serve``."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is printed and exported
    rate: float = 60.0  # time units per wall second
    sites: tuple[LiveSiteSpec, ...] = (LiveSiteSpec(),)
    #: kill a subprocess once it has run for timeout_factor × the task's
    #: declared runtime (units); 0 disables the watchdog
    timeout_factor: float = 10.0
    #: wall seconds to wait for in-flight work at shutdown before the
    #: remaining subprocesses are killed and their contracts abandoned
    drain_grace: float = 30.0
    #: refuse new bids with 429 once this many tasks are queued across
    #: all sites (0 disables shedding) — the backpressure valve that
    #: keeps the executor from saturating under overload
    queue_watermark: int = 0

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
        if self.drain_grace < 0:
            raise LiveServiceError(
                f"drain_grace must be >= 0, got {self.drain_grace!r}"
            )
        if self.queue_watermark < 0:
            raise LiveServiceError(
                f"queue_watermark must be >= 0, got {self.queue_watermark!r}"
            )
