"""Fault injection & reliability: node churn, restarts, breach penalties.

The paper prices *risk* — but without failures the only risk a task
service faces is queueing delay.  This package adds the missing half of
the risk model:

* :class:`FaultSpec` — configuration: MTTF/MTTR distributions, restart
  policy, failure-aware pricing knobs (all off by default).
* :class:`FaultInjector` — per-node crash/repair cycles as daemon kernel
  coroutines on seeded RNG streams.
* :class:`RestartPolicy` and friends — requeue-from-scratch,
  checkpoint-resume, or abandon (contract breach at the penalty floor).
* :class:`ExponentialSurvival` / :class:`WeibullSurvival` — P(node
  survives t), feeding the survival-discount scheduling hook and the
  admission slack-inflation knob.
* :class:`FaultStats` — one shared counter object per run.

See ``docs/faults.md`` for the model and `repro.experiments.faults`
(CLI: ``repro faults``) for the MTTF sweep experiment.
"""

from repro.faults.injector import FaultInjector
from repro.faults.restart import (
    AbandonRestart,
    CheckpointRestart,
    CrashOutcome,
    RequeueRestart,
    RestartPolicy,
    make_restart_policy,
)
from repro.faults.spec import FAULT_DISTRIBUTIONS, RESTART_POLICIES, FaultSpec
from repro.faults.stats import FaultStats
from repro.faults.survival import ExponentialSurvival, WeibullSurvival, survival_for

__all__ = [
    "FAULT_DISTRIBUTIONS",
    "RESTART_POLICIES",
    "AbandonRestart",
    "CheckpointRestart",
    "CrashOutcome",
    "ExponentialSurvival",
    "FaultInjector",
    "FaultSpec",
    "FaultStats",
    "RequeueRestart",
    "RestartPolicy",
    "WeibullSurvival",
    "make_restart_policy",
    "survival_for",
]
