"""Property tests: execution-timeline invariants on random preemptive runs.

These close the loop on the engine's physical realism: whatever the
heuristic and preemption pattern, nodes never double-book, completed
work sums exactly to declared runtimes, and segments stay inside the
task's lifetime.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SiteTimeline
from repro.faults import FaultSpec
from repro.obs import Observability
from repro.scheduling import FirstPrice, FirstReward
from repro.site import simulate_site
from repro.tasks import TaskState
from repro.workload import Trace
from tests.property.strategies import trace_rows


@st.composite
def preemptive_cases(draw):
    rows = draw(trace_rows())
    processors = draw(st.integers(min_value=1, max_value=3))
    heuristic = draw(
        st.sampled_from([FirstPrice, lambda: FirstReward(0.3, 0.01)])
    )
    return rows, processors, heuristic()


def run_case(rows, processors, heuristic, faults=None):
    cols = list(zip(*rows))
    trace = Trace(*[np.array(c, dtype=float) for c in cols])
    obs = Observability()
    result = simulate_site(
        trace, heuristic, processors, preemption=True, faults=faults, obs=obs
    )
    return SiteTimeline(obs.spans.finished, nodes=processors), result.tasks


class TestTimelineInvariants:
    @given(case=preemptive_cases())
    @settings(max_examples=50, deadline=None)
    def test_nodes_never_double_book(self, case):
        timeline, _ = run_case(*case)
        timeline.verify_no_overlap()
        # and with nodes crashing under the tasks: a killed execution is
        # a segment too, and its node stays empty until the repair
        crashing, tasks = run_case(*case, faults=FaultSpec(mttf=40.0, mttr=5.0))
        crashing.verify_no_overlap()
        assert crashing.preemption_count() == sum(t.preemptions for t in tasks)
        crashed = [s for s in crashing.segments if s.ended_by == "crashed"]
        assert len(crashed) == sum(t.restarts for t in tasks)

    @given(case=preemptive_cases())
    @settings(max_examples=50, deadline=None)
    def test_completed_work_conserved(self, case):
        timeline, tasks = run_case(*case)
        for task in tasks:
            if task.state is TaskState.COMPLETED:
                executed = sum(s.length for s in timeline.segments_of(task.tid))
                assert abs(executed - task.runtime) < 1e-6

    @given(case=preemptive_cases())
    @settings(max_examples=50, deadline=None)
    def test_segments_inside_task_lifetime(self, case):
        timeline, tasks = run_case(*case)
        by_tid = {t.tid: t for t in tasks}
        for segment in timeline.segments:
            task = by_tid[segment.tid]
            assert segment.start >= task.arrival - 1e-9
            assert task.completion is None or segment.end <= task.completion + 1e-9

    @given(case=preemptive_cases())
    @settings(max_examples=50, deadline=None)
    def test_exactly_one_final_segment_per_completed_task(self, case):
        timeline, tasks = run_case(*case)
        for task in tasks:
            if task.state is TaskState.COMPLETED:
                finals = [s for s in timeline.segments_of(task.tid) if s.final]
                assert len(finals) == 1
                assert finals[0].end == task.completion

    @given(case=preemptive_cases())
    @settings(max_examples=40, deadline=None)
    def test_preemption_count_matches_tasks(self, case):
        timeline, tasks = run_case(*case)
        assert timeline.preemption_count() == sum(t.preemptions for t in tasks)

    @given(case=preemptive_cases())
    @settings(max_examples=40, deadline=None)
    def test_utilization_within_bounds(self, case):
        timeline, _ = run_case(*case)
        assert 0.0 <= timeline.utilization() <= 1.0 + 1e-9
