"""The task-service site engine (§4–§6).

A :class:`TaskServiceSite` owns a pool of interchangeable processors,
a queue of accepted tasks, a scheduling heuristic, and (optionally) a
slack-based admission-control policy.  It reacts to simulation events —
task arrivals and completions — by recomputing heuristic scores and
dispatching/preempting accordingly, and records every outcome in a
:class:`YieldLedger`.
"""

from repro.site.accounting import TaskRecord, YieldLedger
from repro.site.admission import AdmissionDecision, SlackAdmission
from repro.site.driver import SiteResult, simulate_site
from repro.site.processors import ProcessorPool
from repro.site.service import TaskServiceSite

__all__ = [
    "AdmissionDecision",
    "ProcessorPool",
    "SiteResult",
    "SlackAdmission",
    "TaskRecord",
    "TaskServiceSite",
    "YieldLedger",
    "simulate_site",
]
