"""Run a workload trace through one site — the §4.1 simulation loop.

"The scheduler receives a trace of 5000 jobs representative of the
workload characteristics, and the experiment runs until the system has
completed all jobs."
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError
from repro.scheduling.base import SchedulingHeuristic
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.site.accounting import YieldLedger
from repro.site.service import TaskServiceSite
from repro.tasks.task import Task
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults.spec import FaultSpec
    from repro.faults.stats import FaultStats
    from repro.obs.instrument import Observability


def _resolve_obs(obs: "Optional[Observability]") -> "Optional[Observability]":
    """An explicit *obs* wins; otherwise pick up the ambient attachment."""
    if obs is not None:
        return obs
    from repro.obs.instrument import current

    return current()


@dataclass
class SiteResult:
    """Outcome of one trace-through-site simulation."""

    ledger: YieldLedger
    site: TaskServiceSite
    sim: Simulator
    tasks: list[Task]
    fault_stats: "Optional[FaultStats]" = None

    @property
    def total_yield(self) -> float:
        return self.ledger.total_yield

    @property
    def yield_rate(self) -> float:
        return self.ledger.yield_rate


def simulate_site(
    trace: Trace,
    heuristic: SchedulingHeuristic,
    processors: int,
    admission=None,
    preemption: bool = False,
    discard_expired: bool = False,
    keep_records: bool = True,
    faults: "Optional[FaultSpec]" = None,
    fault_seed: int = 0,
    obs: "Optional[Observability]" = None,
) -> SiteResult:
    """Feed every task of *trace* to a fresh site; run until drained.

    Submissions are scheduled at each task's arrival time; batch
    arrivals submit in trace order at the same instant.  The simulation
    runs until all accepted work completes (the event queue drains).

    With ``faults`` given, a :class:`~repro.faults.FaultInjector` drives
    per-node crash/repair cycles seeded by ``fault_seed`` and tasks
    killed mid-run follow the spec's restart policy; pricing that risk
    is the caller's *heuristic* and *admission*, which are used as given
    and never written.  ``faults=None`` — the default everywhere — is
    the fault-free engine, bit for bit.

    With ``obs`` given — or an ambient :func:`repro.obs.observing`
    attachment active — the run is bracketed as one observability
    *replication*: lifecycle spans and site/admission metrics are
    published, and a per-run summary row is folded into ``obs.runs``.
    Observability is strictly read-only: results are byte-identical with
    it on or off.
    """
    obs = _resolve_obs(obs)
    label = heuristic.name
    restart_policy = None
    if faults is not None:
        from repro.faults.restart import make_restart_policy

        label = f"{heuristic.name}+faults"
        restart_policy = make_restart_policy(faults)
    if obs is not None:
        obs.begin_run(label)
    sim = Simulator()
    ledger = YieldLedger(keep_records=keep_records)
    site = TaskServiceSite(
        sim,
        processors=processors,
        heuristic=heuristic,
        admission=admission,
        preemption=preemption,
        discard_expired=discard_expired,
        ledger=ledger,
        restart_policy=restart_policy,
        obs=obs,
    )
    injector = None
    if faults is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector.on_site(
            sim, faults, site, RandomStreams(fault_seed), obs=obs
        )
    tasks = trace.to_tasks()
    for task in tasks:
        sim.schedule_at(task.arrival, site.submit, task, tag="arrival")
    # wall-clock brackets the run for obs reporting only (wall_s below)
    started = time.perf_counter()  # repro: noqa DET002
    sim.run()
    stats = None
    if injector is not None:
        # only daemon crash timers are left; cancel them, close the books
        injector.shutdown()
        stats = injector.stats
    if obs is not None:
        obs.end_run(
            sim.now,
            heuristic=heuristic.name,
            tasks=len(tasks),
            events=sim.events_fired,
            sim_time=sim.now,
            total_yield=ledger.total_yield,
            **({} if stats is None else {"crashes": stats.crashes}),
            wall_s=time.perf_counter() - started,  # repro: noqa DET002
        )

    _check_drained(site, tasks)
    return SiteResult(
        ledger=ledger, site=site, sim=sim, tasks=tasks, fault_stats=stats
    )


def _check_drained(site: TaskServiceSite, tasks: list[Task]) -> None:
    if not site.all_work_done():
        raise SimulationError(
            f"simulation drained with work outstanding: queue={site.queue_length} "
            f"running={site.running_count}"
        )
    unfinished = [t for t in tasks if not t.finished]
    if unfinished:
        raise SimulationError(f"{len(unfinished)} tasks not in a terminal state")
