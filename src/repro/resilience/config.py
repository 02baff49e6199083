"""Configuration of the market-level resilience layer.

One frozen :class:`ResilienceConfig` is the switchboard for everything
``repro.resilience`` does: per-site health tracking, circuit breakers
around broker→site negotiation, and failover re-bidding of breached or
abandoned tasks.  Everything defaults to *off* — a market built without
a config (or with ``enabled=False``) behaves bit-identically to the
resilience-free market, which the golden regression tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MarketError


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the recovery layer (all inert unless ``enabled``).

    Parameters
    ----------
    enabled:
        Master switch.  ``False`` (the default) attaches nothing: no
        listeners, no breakers, no failover — the resilience-free market
        byte for byte.
    health_alpha:
        EWMA smoothing factor for per-site health scores in (0, 1];
        higher weights the most recent outcome more.
    initial_health:
        Score a site starts with before any outcome is observed.
    breaker_failures:
        Consecutive hard failures (breaches) that trip a site's breaker
        from CLOSED to OPEN.
    breach_rate_threshold:
        Alternative trip wire: the site's EWMA breach rate at or above
        this opens the breaker (once ``breaker_min_events`` outcomes
        have been observed).
    breaker_min_events:
        Minimum observed outcomes before the breach-rate trip wire arms
        (prevents one early breach from reading as rate 1.0).
    cooldown:
        Sim time an OPEN breaker waits before letting a HALF_OPEN probe
        through.
    half_open_probes:
        Contracts allowed in flight while HALF_OPEN; one success closes
        the breaker, one failure re-opens it.
    failover_budget:
        Re-bids allowed per task lineage after a breach or mid-task
        crash abandonment.  0 disables failover while keeping
        health/breakers active.
    failover_delay:
        Sim-time delay before a failover re-bid is issued (0 = the same
        instant, as a separately scheduled event).
    exclude_failed_site:
        Whether the immediate re-bid skips the site that just failed the
        task (it still participates in later rounds).
    """

    enabled: bool = False
    # -- health ---------------------------------------------------------
    health_alpha: float = 0.2
    initial_health: float = 1.0
    # -- circuit breaker ------------------------------------------------
    breaker_failures: int = 3
    breach_rate_threshold: float = 0.5
    breaker_min_events: int = 5
    cooldown: float = 200.0
    half_open_probes: int = 1
    # -- failover re-bidding --------------------------------------------
    failover_budget: int = 2
    failover_delay: float = 0.0
    exclude_failed_site: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.health_alpha <= 1.0:
            raise MarketError(
                f"health_alpha must be in (0, 1], got {self.health_alpha!r}"
            )
        if not 0.0 <= self.initial_health <= 1.0:
            raise MarketError(
                f"initial_health must be in [0, 1], got {self.initial_health!r}"
            )
        if self.breaker_failures < 1:
            raise MarketError(
                f"breaker_failures must be >= 1, got {self.breaker_failures!r}"
            )
        if not 0.0 < self.breach_rate_threshold <= 1.0:
            raise MarketError(
                "breach_rate_threshold must be in (0, 1], got "
                f"{self.breach_rate_threshold!r}"
            )
        if self.breaker_min_events < 1:
            raise MarketError(
                f"breaker_min_events must be >= 1, got {self.breaker_min_events!r}"
            )
        if not (math.isfinite(self.cooldown) and self.cooldown >= 0):
            raise MarketError(
                f"cooldown must be finite and >= 0, got {self.cooldown!r}"
            )
        if self.half_open_probes < 1:
            raise MarketError(
                f"half_open_probes must be >= 1, got {self.half_open_probes!r}"
            )
        if self.failover_budget < 0:
            raise MarketError(
                f"failover_budget must be >= 0, got {self.failover_budget!r}"
            )
        if not (math.isfinite(self.failover_delay) and self.failover_delay >= 0):
            raise MarketError(
                f"failover_delay must be finite and >= 0, got {self.failover_delay!r}"
            )
