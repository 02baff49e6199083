"""Configuration of the market-level resilience layer.

One frozen :class:`ResilienceConfig` switches ``repro.resilience`` on
and sets how many re-bids a breached task may make — the two things the
chaos sweep varies.  Everything defaults to *off*: a market built
without a config (or with ``enabled=False``) behaves bit-identically to
the resilience-free market, which the golden regression tests pin.  The
tuning of health, breakers and failover is fixed where it is read
(:mod:`~repro.resilience.health`, :mod:`~repro.resilience.breaker`,
:mod:`~repro.resilience.manager`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MarketError


@dataclass(frozen=True)
class ResilienceConfig:
    """Switch and failover budget of the recovery layer.

    Parameters
    ----------
    enabled:
        Master switch.  ``False`` (the default) attaches nothing: no
        listeners, no breakers, no failover — the resilience-free market
        byte for byte.
    failover_budget:
        Re-bids allowed per task lineage after a breach or mid-task
        crash abandonment.  0 disables failover while keeping
        health/breakers active.
    """

    enabled: bool = False
    failover_budget: int = 2

    def __post_init__(self) -> None:
        if self.failover_budget < 0:
            raise MarketError(
                f"failover_budget must be >= 0, got {self.failover_budget!r}"
            )
