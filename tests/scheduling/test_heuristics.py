"""Unit tests for the scheduling heuristics' score functions."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.scheduling import (
    FCFS,
    SRPT,
    SWPT,
    FirstPrice,
    FirstReward,
    PoolColumns,
    PresentValue,
    available_heuristics,
    make_heuristic,
)
from repro.scheduling.registry import heuristic_params


def cols_of(rows):
    arrays = [np.array(c, dtype=float) for c in zip(*rows)]
    return PoolColumns(*arrays)


# (arrival, runtime, remaining, value, decay, bound)
BASIC = cols_of([
    (0.0, 10.0, 10.0, 100.0, 1.0, np.inf),   # long, valuable
    (0.0, 2.0, 2.0, 30.0, 1.0, np.inf),      # short, cheaper
    (5.0, 5.0, 5.0, 10.0, 4.0, np.inf),      # urgent, low value
])


def ranking(heuristic, cols, now=10.0):
    return list(np.argsort(-heuristic.scores(cols, now), kind="stable"))


class TestBaselines:
    def test_fcfs_orders_by_arrival(self):
        assert ranking(FCFS(), BASIC) == [0, 1, 2]

    def test_fcfs_tie_keeps_pool_order(self):
        cols = cols_of([(1.0, 5.0, 5.0, 1.0, 0.0, np.inf)] * 3)
        assert ranking(FCFS(), cols) == [0, 1, 2]

    def test_srpt_orders_by_remaining(self):
        assert ranking(SRPT(), BASIC) == [1, 2, 0]

    def test_swpt_orders_by_decay_over_rpt(self):
        # d/RPT: 0.1, 0.5, 0.8
        assert ranking(SWPT(), BASIC) == [2, 1, 0]


class TestPriorityFCFS:
    def test_bands_dominate_arrival_order(self):
        from repro.scheduling import PriorityFCFS

        # unit values: 10 (high band), 1 (low band, earliest arrival)
        cols = cols_of([
            (0.0, 10.0, 10.0, 10.0, 0.0, np.inf),    # low band, arrived first
            (50.0, 10.0, 10.0, 100.0, 0.0, np.inf),  # high band, arrived later
        ])
        assert ranking(PriorityFCFS(band_edges=(5.0,)), cols, now=60.0) == [1, 0]

    def test_fcfs_within_band(self):
        from repro.scheduling import PriorityFCFS

        cols = cols_of([
            (5.0, 10.0, 10.0, 10.0, 0.0, np.inf),
            (1.0, 10.0, 10.0, 11.0, 0.0, np.inf),  # same band, earlier
        ])
        assert ranking(PriorityFCFS(band_edges=(100.0,)), cols, now=10.0) == [1, 0]

    def test_band_edge_validation(self):
        from repro.scheduling import PriorityFCFS

        with pytest.raises(SchedulingError):
            PriorityFCFS(band_edges=())
        with pytest.raises(SchedulingError):
            PriorityFCFS(band_edges=(3.0, 1.0))

    def test_loses_to_firstprice_under_decay(self):
        # the §7 point: coarse bands leave value on the table
        from repro.scheduling import PriorityFCFS
        from repro.site import simulate_site
        from repro.workload import economy_spec, generate_trace

        trace = generate_trace(
            economy_spec(n_jobs=400, load_factor=1.5, value_skew=3.0,
                         penalty_bound=0.0),
            seed=6,
        )
        coarse = simulate_site(trace, PriorityFCFS(), 16, keep_records=False)
        fine = simulate_site(trace, FirstPrice(), 16, keep_records=False)
        assert fine.total_yield > coarse.total_yield


class TestFirstPrice:
    def test_unit_gain_ranking(self):
        # at now=10: delays 10, 10, 10 -> yields 90, 20, -30
        # unit gains: 9, 10, -6
        assert ranking(FirstPrice(), BASIC) == [1, 0, 2]

    def test_yield_decays_with_clock(self):
        fp = FirstPrice()
        early = fp.scores(BASIC, 0.0)
        late = fp.scores(BASIC, 50.0)
        assert (late <= early + 1e-12).all()

    def test_respects_penalty_floor(self):
        cols = cols_of([(0.0, 10.0, 10.0, 100.0, 2.0, 0.0)])
        # way past expiry: yield floored at 0, score 0 (not negative)
        assert FirstPrice().scores(cols, 1000.0)[0] == 0.0


class TestPresentValue:
    def test_zero_discount_equals_firstprice(self):
        pv = PresentValue(discount_rate=0.0)
        assert np.allclose(pv.scores(BASIC, 10.0), FirstPrice().scores(BASIC, 10.0))

    def test_discount_penalizes_long_tasks(self):
        # two tasks, same unit gain, different lengths
        cols = cols_of([
            (0.0, 10.0, 10.0, 100.0, 0.0, np.inf),
            (0.0, 1.0, 1.0, 10.0, 0.0, np.inf),
        ])
        fp_scores = FirstPrice().scores(cols, 0.0)
        assert fp_scores[0] == pytest.approx(fp_scores[1])  # tied under FirstPrice
        pv_scores = PresentValue(discount_rate=0.05).scores(cols, 0.0)
        assert pv_scores[1] > pv_scores[0]  # shorter task wins under PV

    def test_negative_discount_rejected(self):
        with pytest.raises(SchedulingError):
            PresentValue(discount_rate=-0.1)

    def test_eq3_value(self):
        cols = cols_of([(0.0, 10.0, 10.0, 100.0, 0.0, np.inf)])
        scores = PresentValue(discount_rate=0.01).scores(cols, 0.0)
        # PV = 100 / (1 + 0.01*10) = 90.909..; score = PV/10
        assert scores[0] == pytest.approx(100.0 / 1.1 / 10.0)


class TestFirstReward:
    def test_alpha_one_zero_discount_is_firstprice(self):
        fr = FirstReward(alpha=1.0, discount_rate=0.0)
        assert np.allclose(fr.scores(BASIC, 10.0), FirstPrice().scores(BASIC, 10.0))

    def test_alpha_one_is_pv(self):
        fr = FirstReward(alpha=1.0, discount_rate=0.02)
        pv = PresentValue(discount_rate=0.02)
        assert np.allclose(fr.scores(BASIC, 10.0), pv.scores(BASIC, 10.0))

    def test_alpha_zero_unbounded_orders_by_decay(self):
        # Eq. 5: per-unit cost = D - d_i, so ranking follows decay rates
        fr = FirstReward(alpha=0.0, discount_rate=0.01)
        assert ranking(fr, BASIC) == [2, 0, 1] or ranking(fr, BASIC) == [2, 1, 0]
        # task 2 (decay 4) must rank first
        assert ranking(fr, BASIC)[0] == 2

    def test_alpha_zero_scores_match_eq5(self):
        fr = FirstReward(alpha=0.0, discount_rate=0.0)
        scores = fr.scores(BASIC, 10.0)
        D = BASIC.decay.sum()
        expected = -(D - BASIC.decay)
        assert np.allclose(scores, expected)

    def test_expired_competitors_cost_nothing(self):
        # one live unbounded task + one expired bounded task
        cols = cols_of([
            (0.0, 10.0, 10.0, 100.0, 1.0, np.inf),
            (0.0, 10.0, 10.0, 10.0, 5.0, 0.0),
        ])
        fr = FirstReward(alpha=0.0, discount_rate=0.0)
        # at now=1000 task1 is long expired: it contributes no cost to task0
        scores = fr.scores(cols, 1000.0)
        assert scores[0] == pytest.approx(0.0)

    def test_alpha_validation(self):
        with pytest.raises(SchedulingError):
            FirstReward(alpha=-0.1)
        with pytest.raises(SchedulingError):
            FirstReward(alpha=1.1)
        with pytest.raises(SchedulingError):
            FirstReward(alpha=0.5, discount_rate=-1.0)

    def test_interpolates_between_cost_and_gain(self):
        cost_only = FirstReward(alpha=0.0, discount_rate=0.01).scores(BASIC, 10.0)
        gain_only = FirstReward(alpha=1.0, discount_rate=0.01).scores(BASIC, 10.0)
        mid = FirstReward(alpha=0.5, discount_rate=0.01).scores(BASIC, 10.0)
        assert np.allclose(mid, 0.5 * gain_only + 0.5 * cost_only / 1.0)


class TestRegistry:
    def test_all_names_available(self):
        assert set(available_heuristics()) == {
            "fcfs", "srpt", "swpt", "priority-fcfs", "firstprice", "pv",
            "firstreward",
        }

    def test_make_with_params(self):
        h = make_heuristic("firstreward", alpha=0.2, discount_rate=0.03)
        assert isinstance(h, FirstReward)
        assert h.alpha == 0.2 and h.discount_rate == 0.03

    def test_unknown_name(self):
        with pytest.raises(SchedulingError):
            make_heuristic("lottery")

    def test_bad_params(self):
        with pytest.raises(SchedulingError):
            make_heuristic("fcfs", alpha=0.5)

    def test_params_rebuild_every_registry_heuristic(self):
        tuned = make_heuristic("firstreward", alpha=0.9, discount_rate=0.05)
        assert heuristic_params(tuned) == {"alpha": 0.9, "discount_rate": 0.05}
        for name in available_heuristics():
            params = heuristic_params(make_heuristic(name))
            assert params is not None
            assert heuristic_params(make_heuristic(name, **params)) == params

    def test_a_wrapper_or_subclass_has_no_readable_params(self):
        from repro.faults.survival import ExponentialSurvival
        from repro.scheduling.survival import SurvivalDiscount

        class Tuned(FirstReward):
            pass

        wrapped = SurvivalDiscount(FirstReward(0.9), ExponentialSurvival(100.0))
        assert heuristic_params(wrapped) is None
        assert heuristic_params(Tuned(0.9)) is None
