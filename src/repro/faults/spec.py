"""Fault-model configuration.

A :class:`FaultSpec` describes failures and nothing else: per-node
crash/repair cycles (exponential, means MTTF/MTTR) and the restart
policy applied to tasks a crash kills.  How a site *prices* that risk is
policy, named where every other policy is named — a
:class:`~repro.scheduling.survival.SurvivalDiscount`-wrapped heuristic,
``SlackAdmission(slack_inflation=…)``.  "No faults" is ``faults=None``:
a site built without a FaultSpec is the fault-free engine, bit for bit.

Crash and repair times are drawn by inverse-transform sampling on the
seeded per-node RNG streams, so two runs that differ only in MTTF
consume the *same* uniform draws scaled differently — shrinking MTTF
strictly advances every crash, which keeps MTTF sweeps well-coupled
(common random numbers) and their yield curves clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

#: Restart policy names accepted by :func:`repro.faults.restart.make_restart_policy`.
RESTART_POLICIES = ("requeue", "abandon")


@dataclass(frozen=True)
class FaultSpec:
    """Configuration of the fault-injection subsystem.

    Parameters
    ----------
    mttf:
        Mean time to failure per node (time units of the simulation),
        exponentially distributed — the memoryless availability model.
        ``math.inf`` disables crashes while keeping the wiring active.
    mttr:
        Mean time to repair per node (exponential).
    restart:
        What happens to a task killed by a node crash — ``"requeue"``
        (from scratch: all progress lost) or ``"abandon"`` (breach the
        contract and pay the value-function floor; falls back to requeue
        for unbounded-penalty tasks, which cannot legally be breached).
    """

    mttf: float
    mttr: float
    restart: str = "requeue"

    def __post_init__(self) -> None:
        if not self.mttf > 0 or math.isnan(self.mttf):
            raise SimulationError(f"mttf must be > 0, got {self.mttf!r}")
        if not (math.isfinite(self.mttr) and self.mttr >= 0):
            raise SimulationError(f"mttr must be finite and >= 0, got {self.mttr!r}")
        if self.restart not in RESTART_POLICIES:
            raise SimulationError(
                f"unknown restart policy {self.restart!r}; options: {RESTART_POLICIES}"
            )

    # ------------------------------------------------------------------
    # Inverse-transform sampling (common-random-numbers coupling)
    # ------------------------------------------------------------------
    def draw_ttf(self, rng: np.random.Generator) -> float:
        """One time-to-failure draw; ``inf`` when crashes are disabled."""
        if math.isinf(self.mttf):
            rng.random()  # keep stream alignment with finite-MTTF runs
            return math.inf
        return _inverse_sample(self.mttf, rng)

    def draw_ttr(self, rng: np.random.Generator) -> float:
        """One time-to-repair draw (0 for instant repair)."""
        if self.mttr == 0.0:
            rng.random()
            return 0.0
        return _inverse_sample(self.mttr, rng)


def _inverse_sample(mean: float, rng: np.random.Generator) -> float:
    """Exponential draw with the given mean via inverse-transform on one
    uniform variate — the uniform sequence is invariant to the mean, so
    sweeps over MTTF/MTTR stay coupled draw-for-draw."""
    # guard the log against u == 0 (rng.random() is in [0, 1))
    u = max(rng.random(), 1e-300)
    return -mean * math.log(u)
