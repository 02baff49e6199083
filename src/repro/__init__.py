"""repro — a reproduction of *Balancing Risk and Reward in a Market-Based
Task Service* (Irwin, Grit & Chase, HPDC 2004).

The library implements the paper's full system from scratch:

* linear-decay **value functions** with bounded/unbounded penalties
  (:mod:`repro.valuefn`),
* the **risk/reward scheduling heuristics** — FirstPrice, Present Value,
  and the α-parameterized FirstReward — plus FCFS/SRPT/SWPT baselines
  (:mod:`repro.scheduling`),
* a multiprocessor **task-service site** with preemption and slack-based
  **admission control** (:mod:`repro.site`),
* the **market layer**: sealed-bid negotiation, server bids, contracts,
  brokers, and multi-site economies (:mod:`repro.market`),
* the §4.1 **synthetic workload generator** with bimodal value/decay
  classes and load-factor calibration (:mod:`repro.workload`),
* a from-scratch **discrete-event simulation kernel**
  (:mod:`repro.sim`),
* an **experiment harness** regenerating every evaluation figure
  (:mod:`repro.experiments`, ``repro`` CLI), and
* an **observability layer**: lifecycle span trees, a metrics registry,
  and Chrome-trace export (:mod:`repro.obs`,
  ``docs/observability.md``).

Quickstart::

    from repro import (
        FirstReward, SlackAdmission, economy_spec, generate_trace,
        simulate_site,
    )

    trace = generate_trace(economy_spec(n_jobs=500, load_factor=2.0), seed=1)
    result = simulate_site(
        trace,
        FirstReward(alpha=0.3, discount_rate=0.01),
        processors=16,
        admission=SlackAdmission(threshold=180.0),
    )
    print(result.ledger.summary())
"""

from repro.errors import (
    AdmissionError,
    ContractViolation,
    ExperimentError,
    MarketError,
    ReproError,
    SchedulingError,
    SimulationError,
    ValueFunctionError,
    WorkloadError,
)
from repro.market import Broker, MarketEconomy, MarketSite, run_market
from repro.obs import MetricsRegistry, Observability, observing
from repro.scheduling import (
    FCFS,
    SRPT,
    SWPT,
    FirstPrice,
    FirstReward,
    PresentValue,
    available_heuristics,
    make_heuristic,
)
from repro.sim import Simulator
from repro.site import (
    SlackAdmission,
    TaskServiceSite,
    YieldLedger,
    simulate_site,
)
from repro.tasks import Contract, ServerBid, Task, TaskBid, TaskState
from repro.valuefn import LinearDecayValueFunction, PiecewiseLinearValueFunction
from repro.workload import (
    Trace,
    WorkloadSpec,
    economy_spec,
    generate_trace,
    millennium_spec,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "Broker",
    "Contract",
    "ContractViolation",
    "ExperimentError",
    "FCFS",
    "FirstPrice",
    "FirstReward",
    "LinearDecayValueFunction",
    "MarketEconomy",
    "MarketError",
    "MarketSite",
    "MetricsRegistry",
    "Observability",
    "PiecewiseLinearValueFunction",
    "PresentValue",
    "ReproError",
    "SRPT",
    "SWPT",
    "SchedulingError",
    "ServerBid",
    "SimulationError",
    "Simulator",
    "SlackAdmission",
    "Task",
    "TaskBid",
    "TaskServiceSite",
    "TaskState",
    "Trace",
    "ValueFunctionError",
    "WorkloadError",
    "WorkloadSpec",
    "YieldLedger",
    "available_heuristics",
    "economy_spec",
    "generate_trace",
    "make_heuristic",
    "millennium_spec",
    "observing",
    "run_market",
    "simulate_site",
]
