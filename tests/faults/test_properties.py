"""Property-based invariants for crash handling.

The two invariants the whole reliability subsystem leans on:

* a killed task is charged to the ledger exactly once, at its final
  terminal transition — never once per crash (no double-charged yield);
* every crash/repair cycle returns the ProcessorPool to a clean state —
  no leaked busy slot, no phantom down node.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import AbandonRestart, RequeueRestart
from repro.scheduling import FCFS, FirstPrice
from repro.sim import Simulator
from repro.site import TaskServiceSite
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction

policies = st.sampled_from([RequeueRestart(), AbandonRestart()])

task_params = st.tuples(
    st.floats(min_value=0.0, max_value=30.0),  # arrival
    st.floats(min_value=0.5, max_value=25.0),  # runtime
    st.floats(min_value=0.0, max_value=2.0),  # decay
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=50.0)),  # bound
)

crash_params = st.tuples(
    st.floats(min_value=0.1, max_value=60.0),  # crash time
    st.integers(min_value=0, max_value=2),  # node id
    st.floats(min_value=0.1, max_value=20.0),  # repair delay
)


@settings(max_examples=60)
@given(
    tasks=st.lists(task_params, min_size=1, max_size=6),
    crashes=st.lists(crash_params, min_size=1, max_size=5),
    policy=policies,
)
def test_crashes_never_double_charge_or_leak_slots(tasks, crashes, policy):
    sim = Simulator()
    site = TaskServiceSite(
        sim, processors=3, heuristic=FirstPrice(), restart_policy=policy
    )
    built = [
        Task(arrival, runtime, LinearDecayValueFunction(100.0, decay, bound))
        for arrival, runtime, decay, bound in tasks
    ]
    for t in built:
        sim.schedule_at(t.arrival, site.submit, t)
    for crash_at, node_id, repair_delay in crashes:
        sim.schedule_at(crash_at, site.crash_node, node_id)
        sim.schedule_at(crash_at + repair_delay, site.repair_node, node_id)
    sim.run()

    # every task reached exactly one terminal state and was recorded once
    assert all(t.finished for t in built)
    ledger = site.ledger
    assert ledger.completed + ledger.cancelled == len(built)
    assert len(ledger.records) == len(built)
    recorded_ids = sorted(r.tid for r in ledger.records)
    assert recorded_ids == sorted(t.tid for t in built)

    # the ledger total is exactly the sum of per-task realized yields —
    # a double charge would break this identity
    assert math.isclose(
        ledger.total_yield,
        sum(t.realized_yield for t in built),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )

    # no leaked slots, no phantom down nodes, nothing left running: with
    # every node brought up (a no-op for the ones already up), all are free
    pool = site.processors
    assert pool.busy_count == 0
    for node_id in range(3):
        pool.repair(node_id)
    assert pool.free_count == 3
    assert site.all_work_done()


@settings(max_examples=40)
@given(
    runtime=st.floats(min_value=1.0, max_value=40.0),
    crash_frac=st.floats(min_value=0.01, max_value=0.99),
    repair_delay=st.floats(min_value=0.1, max_value=30.0),
    policy=policies,
)
def test_single_task_crash_yield_identity(runtime, crash_frac, repair_delay, policy):
    """One task, one node, one mid-run crash: the ledger must equal the
    task's own realized yield regardless of restart policy."""
    sim = Simulator()
    site = TaskServiceSite(
        sim, processors=1, heuristic=FCFS(), restart_policy=policy
    )
    t = Task(0.0, runtime, LinearDecayValueFunction(100.0, 1.0, 60.0))
    sim.schedule_at(0.0, site.submit, t)
    crash_at = runtime * crash_frac
    sim.schedule_at(crash_at, site.crash_node, 0)
    sim.schedule_at(crash_at + repair_delay, site.repair_node, 0)
    sim.run()

    assert t.finished
    assert site.ledger.completed + site.ledger.cancelled == 1
    assert site.ledger.total_yield == t.realized_yield
    assert site.processors.busy_count == 0
    assert site.processors.free_count == 1  # idle and up
