"""FaultInjector cycles, event-liveness semantics, and site wiring."""

import math

import pytest

from repro.faults import FaultInjector, FaultSpec, FaultStats
from repro.scheduling import FCFS
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.site import TaskServiceSite
from repro.tasks import Task, TaskState
from repro.valuefn import LinearDecayValueFunction

from tests.oracles import pending_events


def make_task(arrival, runtime, value=100.0, decay=0.0, bound=None):
    return Task(arrival, runtime, LinearDecayValueFunction(value, decay, bound))


def make_injector(sim, spec, node_ids, on_crash=None, on_repair=None, seed=0):
    return FaultInjector(
        sim,
        spec,
        node_ids=node_ids,
        streams=RandomStreams(seed),
        on_crash=on_crash or (lambda nid: None),
        on_repair=on_repair or (lambda nid: None),
    )


class TestCycles:
    def test_crash_repair_alternation(self):
        sim = Simulator()
        log = []
        inj = make_injector(
            sim,
            FaultSpec(mttf=50.0, mttr=10.0),
            node_ids=[0],
            on_crash=lambda nid: log.append(("crash", nid, sim.now)),
            on_repair=lambda nid: log.append(("repair", nid, sim.now)),
        )
        # an essential marker event keeps the run alive long enough for
        # several cycles; daemon crash events alone would end it at t=0
        sim.schedule_at(400.0, lambda: None, tag="horizon")
        sim.run()
        kinds = [k for k, _, _ in log]
        assert kinds[:2] == ["crash", "repair"]
        assert all(
            kinds[i] == ("crash" if i % 2 == 0 else "repair")
            for i in range(len(kinds) - 1)
        )
        assert inj.stats.crashes >= 2
        assert inj.stats.repairs in (inj.stats.crashes, inj.stats.crashes - 1)

    def test_infinite_mttf_never_crashes(self):
        sim = Simulator()
        log = []
        make_injector(
            sim,
            FaultSpec(mttf=math.inf, mttr=10.0),
            node_ids=[0],
            on_crash=lambda nid: log.append(nid),
        )
        sim.schedule_at(1000.0, lambda: None, tag="horizon")
        sim.run()
        assert log == []

    def test_per_node_streams_independent(self):
        """Node 0's fault trace is identical whether or not node 1 exists."""

        def crash_times(node_ids):
            sim = Simulator()
            times = {nid: [] for nid in node_ids}
            make_injector(
                sim,
                FaultSpec(mttf=40.0, mttr=5.0),
                node_ids=node_ids,
                on_crash=lambda nid: times[nid].append(sim.now),
            )
            sim.schedule_at(500.0, lambda: None, tag="horizon")
            sim.run()
            return times

        alone = crash_times([0])
        together = crash_times([0, 1])
        assert alone[0] == together[0]

    def test_stop_interrupts_loops(self):
        sim = Simulator()
        inj = make_injector(sim, FaultSpec(mttf=50.0, mttr=10.0), node_ids=[0, 1])
        sim.schedule_at(120.0, lambda: None, tag="horizon")
        sim.run()
        assert inj.active_count > 0
        pending = pending_events(sim)
        assert inj.stop() == 2
        # a cancel, not a delivery: nothing is left to run
        assert inj.active_count == 0
        assert pending_events(sim) == pending - 2


class TestLiveness:
    def test_crash_timeouts_are_daemon(self):
        """With nothing else scheduled the run ends immediately — pending
        crashes never keep the simulation alive."""
        sim = Simulator()
        make_injector(sim, FaultSpec(mttf=1000.0, mttr=10.0), node_ids=[0])
        sim.run()
        assert sim.now == 0.0

    def test_repair_timeouts_are_essential(self):
        """Once a node is down its repair fires even with no other work —
        a crashed cluster must be able to un-wedge itself."""
        sim = Simulator()
        log = []
        make_injector(
            sim,
            FaultSpec(mttf=30.0, mttr=500.0),
            node_ids=[0],
            on_repair=lambda nid: log.append(sim.now),
        )
        # horizon ends *before* the repair would fire; the essential
        # repair event must still be delivered
        sim.schedule_at(60.0, lambda: None, tag="horizon")
        sim.run()
        assert len(log) >= 1
        assert log[0] > 60.0


class TestSiteWiring:
    def test_all_nodes_down_then_repaired_drains_queue(self):
        """The deadlock case: every node dies with work queued.  Repairs
        must land and the queue must drain."""
        sim = Simulator()
        site = TaskServiceSite(sim, processors=2, heuristic=FCFS())
        tasks = [make_task(0.0, 50.0) for _ in range(4)]
        for t in tasks:
            sim.schedule_at(t.arrival, site.submit, t)
        sim.schedule_at(10.0, site.crash_node, 0)
        sim.schedule_at(10.0, site.crash_node, 1)
        sim.schedule_at(100.0, site.repair_node, 0)
        sim.schedule_at(100.0, site.repair_node, 1)
        sim.run()
        assert all(t.state is TaskState.COMPLETED for t in tasks)
        assert site.all_work_done()
        # both 50-unit tasks restarted from scratch at t=100
        assert sim.now == pytest.approx(200.0)

    def test_crash_on_idle_node_kills_nothing(self):
        sim = Simulator()
        site = TaskServiceSite(sim, processors=2, heuristic=FCFS())
        t = make_task(0.0, 20.0)
        sim.schedule_at(0.0, site.submit, t)
        outcomes = []
        sim.schedule_at(5.0, lambda: outcomes.append(site.crash_node(1)))
        sim.schedule_at(8.0, site.repair_node, 1)
        sim.run()
        assert outcomes == [None]
        assert t.state is TaskState.COMPLETED
        assert t.completion == 20.0

    def test_injector_driven_site_completes_all_work(self):
        sim = Simulator()
        site = TaskServiceSite(sim, processors=3, heuristic=FCFS())
        stats = FaultStats()
        FaultInjector(
            sim,
            FaultSpec(mttf=60.0, mttr=15.0),
            node_ids=[0, 1, 2],
            streams=RandomStreams(1),
            on_crash=site.crash_node,
            on_repair=site.repair_node,
            stats=stats,
        )
        tasks = [make_task(float(i), 25.0, decay=0.1) for i in range(12)]
        for t in tasks:
            sim.schedule_at(t.arrival, site.submit, t)
        sim.run()
        assert all(t.state is TaskState.COMPLETED for t in tasks)
        assert stats.crashes > 0
        assert site.ledger.completed == 12
