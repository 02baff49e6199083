"""The clock seam: decisions are a function of the reading, not the clock.

Admission, heuristic ordering and quoting are pure functions of (clock
reading, queue state) — so feeding the *same* instant through a SimClock
and a FrozenClock must produce bit-identical decisions.  (That the live
service and the simulator run the same *site* needs no parity test:
there is one site implementation, and ``test_parity.py`` runs it on
both hosts.)
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.live.clock import FrozenClock
from repro.scheduling.firstreward import FirstReward
from repro.sim import Simulator
from repro.site.admission import SlackAdmission
from repro.site.service import TaskServiceSite
from repro.tasks.task import Task
from repro.valuefn.linear import LinearDecayValueFunction


def _engine(clock=None) -> TaskServiceSite:
    return TaskServiceSite(
        Simulator(),
        processors=2,
        heuristic=FirstReward(alpha=0.3, discount_rate=0.01),
        admission=None,
        clock=clock,
    )


def _task(arrival, runtime, value, decay, bound=None, tid=None):
    return Task(
        arrival=arrival,
        runtime=runtime,
        vf=LinearDecayValueFunction(value, decay, bound),
        tid=tid,
    )


@given(
    runtime=st.floats(min_value=1.0, max_value=5000.0),
    value=st.floats(min_value=0.1, max_value=1000.0),
    decay=st.floats(min_value=0.0, max_value=10.0),
    threshold=st.floats(min_value=-100.0, max_value=1000.0),
)
def test_admission_identical_under_simclock_and_frozen_wallclock(
    runtime, value, decay, threshold
):
    """Same instant, same queue ⇒ the same AdmissionDecision, field for field."""
    sim_site = _engine()  # default SimClock over a sim at t=0
    frozen_site = _engine(clock=FrozenClock(0.0))
    admission = SlackAdmission(threshold=threshold)

    probe_a = _task(0.0, runtime, value, decay, tid=9001)
    probe_b = _task(0.0, runtime, value, decay, tid=9001)
    decision_sim = admission.evaluate(sim_site, probe_a)
    decision_live = admission.evaluate(frozen_site, probe_b)
    assert decision_sim == decision_live  # frozen dataclass: exact equality


def test_admission_identical_with_queued_work():
    """Parity holds with a non-trivial candidate schedule, at a later instant."""
    sim = Simulator()
    sim.schedule(500.0, lambda: None)
    sim.run()  # sim clock now at 500
    sim_site = TaskServiceSite(
        sim, processors=2, heuristic=FirstReward(alpha=0.3, discount_rate=0.01)
    )
    frozen_site = _engine(clock=FrozenClock(500.0))
    for site in (sim_site, frozen_site):
        for i, (runtime, value, decay) in enumerate(
            [(300.0, 50.0, 0.2), (100.0, 10.0, 0.05), (700.0, 95.0, 0.9)]
        ):
            task = _task(500.0, runtime, value, decay, tid=100 + i)
            task.submit()
            task.accept()
            site.pool.add(task)

    admission = SlackAdmission(threshold=180.0)
    probe_sim = _task(500.0, 250.0, 40.0, 0.3, tid=999)
    probe_live = _task(500.0, 250.0, 40.0, 0.3, tid=999)
    assert admission.evaluate(sim_site, probe_sim) == admission.evaluate(
        frozen_site, probe_live
    )
