"""Property tests: candidate-schedule projection and heuristic scores."""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import FirstPrice, FirstReward, PresentValue, project_next_start
from repro.scheduling.pool import PendingPool
from repro.tasks import Task
from repro.valuefn import LinearDecayValueFunction
from tests.oracles import project_start_times
from tests.property.test_pool_incremental import running_union
from tests.property.strategies import pool_columns

rpts = st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50)
frees = st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8)
now_values = st.floats(min_value=0.0, max_value=1e5)


class TestProjection:
    @given(remaining=rpts, free=frees)
    def test_no_processor_overlap(self, remaining, free):
        """Reconstruct the per-processor assignment and verify intervals
        on each processor are disjoint and work-conserving."""
        starts = project_start_times(remaining, free)
        # replay list scheduling to know which processor took each task
        heap = [(t, i) for i, t in enumerate(free)]
        heapq.heapify(heap)
        busy_until = dict(enumerate(free))
        for pos, rpt in enumerate(remaining):
            t, proc = heapq.heappop(heap)
            assert starts[pos] == t  # same tie-break as the implementation
            assert starts[pos] >= busy_until[proc] - 1e-9
            busy_until[proc] = t + rpt
            heapq.heappush(heap, (busy_until[proc], proc))

    @given(remaining=rpts, free=frees)
    def test_starts_never_before_earliest_free(self, remaining, free):
        starts = project_start_times(remaining, free)
        assert (starts >= min(free) - 1e-12).all()

    @given(remaining=rpts, free=frees)
    def test_completion_bounded_by_serial_schedule(self, remaining, free):
        starts = project_start_times(remaining, free)
        completions = starts + np.array(remaining)
        serial_finish = max(free) + sum(remaining)
        assert completions.max() <= serial_finish + 1e-9

    @given(remaining=rpts, free=frees, data=st.data())
    def test_next_start_is_one_entry_of_the_full_projection(self, remaining, free, data):
        position = data.draw(st.integers(min_value=0, max_value=len(remaining) - 1))
        full = project_start_times(remaining, free)[position]
        alone = np.float64(project_next_start(remaining, free, position))
        assert alone.tobytes() == full.tobytes()

    @given(remaining=rpts, free=frees)
    def test_more_processors_never_hurts(self, remaining, free):
        starts_few = project_start_times(remaining, free)
        starts_many = project_start_times(remaining, free + [min(free)])
        assert starts_many.sum() <= starts_few.sum() + 1e-6


class TestHeuristicScores:
    @given(cols=pool_columns(), now=now_values)
    @settings(max_examples=80)
    def test_scores_are_finite_and_aligned(self, cols, now):
        now = now + float(cols.arrival.max())  # never score before arrival
        for heuristic in (FirstPrice(), PresentValue(0.01), FirstReward(0.3, 0.01)):
            scores = heuristic.scores(cols, now)
            assert scores.shape == (len(cols),)
            assert np.isfinite(scores).all()

    @given(cols=pool_columns(), now=now_values)
    @settings(max_examples=80)
    def test_firstreward_reductions(self, cols, now):
        now = now + float(cols.arrival.max())
        fp = FirstPrice().scores(cols, now)
        fr = FirstReward(alpha=1.0, discount_rate=0.0).scores(cols, now)
        assert np.allclose(fp, fr)
        pv = PresentValue(0.07).scores(cols, now)
        fr_pv = FirstReward(alpha=1.0, discount_rate=0.07).scores(cols, now)
        assert np.allclose(pv, fr_pv)

    @given(cols=pool_columns(min_size=2), now=now_values)
    @settings(max_examples=80)
    def test_population_independent_scores_stable_under_block_probe(self, cols, now):
        """FirstPrice/PV scores must not change when the tail of the pool
        arrives as running tasks instead (the preemption pass's pending ∪
        running union) — they depend only on the task itself.  Bit for bit
        against the pool that holds every row (the same scoring path: the
        first heuristic of each pool scores from its affine rows, the
        second on the row form), to rounding against the hand-built
        view (always the row form)."""
        now = now + float(cols.arrival.max())
        half = len(cols) // 2
        pool, full = PendingPool(), PendingPool()
        running = []
        for i in range(len(cols)):
            vf = LinearDecayValueFunction(
                cols.value[i], cols.decay[i],
                None if np.isinf(cols.bound[i]) else cols.bound[i],
            )
            task = Task(cols.arrival[i], cols.runtime[i], vf)
            task.estimated_remaining = cols.remaining[i]
            full.add(task)
            (pool.add if i < half else running.append)(task)
        rebuilt = running_union(pool, running, now)
        assert len(rebuilt) == len(cols) and len(pool) == half
        for heuristic in (FirstPrice(), PresentValue(0.02)):
            scores = heuristic.scores(rebuilt, now)
            assert np.array_equal(heuristic.scores(full.columns(), now), scores)
            assert np.allclose(heuristic.scores(cols, now), scores, rtol=1e-12)
