"""Fault injection & reliability: node churn, restarts, breach penalties.

The paper prices *risk* — but without failures the only risk a task
service faces is queueing delay.  This package adds the missing half of
the risk model:

* :class:`FaultSpec` — what fails and how it comes back: MTTF, MTTR,
  restart policy.
* :class:`FaultInjector` — per-node crash/repair cycles as daemon kernel
  coroutines on seeded RNG streams.
* :class:`RestartPolicy` and friends — requeue-from-scratch or abandon
  (contract breach at the penalty floor).
* :class:`ExponentialSurvival` — P(node survives t), what a
  :class:`~repro.scheduling.survival.SurvivalDiscount` weighs scores by.
* :class:`FaultStats` — one shared counter object per run.

See ``docs/faults.md`` for the model and `repro.experiments.faults`
(CLI: ``repro faults``) for the MTTF sweep experiment.
"""

from repro.faults.injector import FaultInjector
from repro.faults.restart import (
    AbandonRestart,
    CrashOutcome,
    RequeueRestart,
    RestartPolicy,
    make_restart_policy,
)
from repro.faults.spec import RESTART_POLICIES, FaultSpec
from repro.faults.stats import FaultStats
from repro.faults.survival import ExponentialSurvival

__all__ = [
    "RESTART_POLICIES",
    "AbandonRestart",
    "CrashOutcome",
    "ExponentialSurvival",
    "FaultInjector",
    "FaultSpec",
    "FaultStats",
    "RequeueRestart",
    "RestartPolicy",
    "make_restart_policy",
]
