"""Property tests: the opportunity-cost kernel vs its O(n²) oracle.

Each property runs the plain statement of ``tests/oracles.py`` and the
shipped kernel, ``saturating_costs``, on the same inputs and requires the
same bytes (``checked_costs``) before it checks the value."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tests.oracles import checked_costs, opportunity_costs_naive

sizes = st.integers(min_value=1, max_value=40)


@st.composite
def cost_inputs(draw):
    n = draw(sizes)
    remaining = draw(
        hnp.arrays(float, n, elements=st.floats(min_value=0.0, max_value=1e3))
    )
    decay = draw(
        hnp.arrays(float, n, elements=st.floats(min_value=0.0, max_value=100.0))
    )
    horizons = draw(
        hnp.arrays(float, n, elements=st.floats(min_value=0.0, max_value=1e4))
    )
    # random subset unbounded
    mask = draw(hnp.arrays(bool, n))
    horizons = np.where(mask, np.inf, horizons)
    return remaining, decay, horizons


class TestKernelVsOracle:
    @given(inputs=cost_inputs())
    @settings(max_examples=120)
    def test_matches_naive(self, inputs):
        remaining, decay, horizons = inputs
        fast = checked_costs(remaining, decay, horizons)
        slow = opportunity_costs_naive(remaining, decay, horizons)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-6)

    @given(inputs=cost_inputs())
    def test_nonnegative(self, inputs):
        cost = checked_costs(*inputs)
        assert (cost >= -1e-9).all()

    @given(inputs=cost_inputs(), scale=st.floats(min_value=1.0, max_value=10.0))
    def test_monotone_in_remaining(self, inputs, scale):
        remaining, decay, horizons = inputs
        base = checked_costs(remaining, decay, horizons)
        more = checked_costs(remaining * scale, decay, horizons)
        assert (more >= base - 1e-6).all()

    @given(inputs=cost_inputs(), seed=st.integers(min_value=0, max_value=2**31))
    def test_permutation_equivariant(self, inputs, seed):
        remaining, decay, horizons = inputs
        perm = np.random.default_rng(seed).permutation(len(remaining))
        direct = checked_costs(remaining, decay, horizons)[perm]
        permuted = checked_costs(remaining[perm], decay[perm], horizons[perm])
        assert np.allclose(direct, permuted, rtol=1e-9, atol=1e-6)

    @given(inputs=cost_inputs())
    def test_eq5_special_case(self, inputs):
        remaining, decay, _ = inputs
        horizons = np.full(len(remaining), np.inf)
        cost = checked_costs(remaining, decay, horizons)
        expected = remaining * (decay.sum() - decay)
        assert np.allclose(cost, expected, rtol=1e-9, atol=1e-6)


def pre_branch_costs(remaining, decay, horizons):
    """The kernel as it stood before it branched on the data: every input
    takes the mask / sort / concatenate path, zero-weight competitors
    included.  The branches must not move a bit relative to it (golden
    figures hash these floats).  The sort is stable, as the kernel's is:
    the default kind orders tied horizons by the CPU's SIMD dispatch, so
    equality with it holds on some inputs and some machines only."""
    finite = np.isfinite(horizons)
    w_unbounded = float(decay[~finite].sum())
    h_fin = horizons[finite]
    d_fin = decay[finite]
    order = np.argsort(h_fin, kind="stable")
    h_sorted = h_fin[order]
    d_sorted = d_fin[order]
    prefix_dh = np.concatenate(([0.0], np.cumsum(d_sorted * h_sorted)))
    prefix_d = np.concatenate(([0.0], np.cumsum(d_sorted)))
    k = np.searchsorted(h_sorted, remaining, side="right")
    cost = prefix_dh[k] + remaining * (prefix_d[-1] - prefix_d[k] + w_unbounded)
    return cost - decay * np.minimum(remaining, horizons)


@st.composite
def branch_inputs(draw):
    """Inputs steered onto one branch: no finite horizon (Eq. 5), every
    horizon finite, or a mix — pools of one task included."""
    n = draw(sizes)
    kind = draw(st.sampled_from(["eq5", "all_finite", "mixed"]))
    remaining = draw(
        hnp.arrays(float, n, elements=st.floats(min_value=0.0, max_value=1e3))
    )
    decay = draw(
        hnp.arrays(float, n, elements=st.floats(min_value=0.0, max_value=100.0))
    )
    # horizon 0 is what a zero-decay (or expired) task reports; its
    # effective decay is zeroed with it, as effective_decay() does
    horizons = draw(
        hnp.arrays(
            float,
            n,
            elements=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4)),
        )
    )
    decay = np.where(horizons > 0.0, decay, 0.0)
    if kind == "eq5":
        horizons = np.full(n, np.inf)
    elif kind == "mixed":
        horizons = np.where(draw(hnp.arrays(bool, n)), np.inf, horizons)
    return kind, remaining, decay, horizons


_INF = np.inf


def _case(kind, remaining, decay, horizons):
    return kind, np.array(remaining), np.array(decay), np.array(horizons)


class TestBranchesKeepTheBits:
    @given(inputs=branch_inputs())
    @example(inputs=_case("eq5", [5.0], [2.0], [_INF]))  # lone task
    @example(inputs=_case("all_finite", [5.0], [2.0], [3.0]))  # lone, bounded
    @example(inputs=_case("all_finite", [5.0], [0.0], [0.0]))  # lone, zero decay
    @example(inputs=_case("all_finite", [5.0, 4.0], [0.0, 2.0], [0.0, 3.0]))
    @example(inputs=_case("mixed", [5.0, 4.0, 3.0], [1.0, 0.0, 2.0], [_INF, 0.0, 3.0]))
    # tied horizons around one zero-weight row: a default-kind sort of the
    # live rows alone differs from one of all nine rows by one ulp
    @example(
        inputs=_case(
            "all_finite",
            [1.0] * 9,
            [31.86127261] * 3 + [1.0] + [31.86127261] * 4 + [0.0],
            [1.0] * 8 + [0.0],
        )
    )
    @settings(max_examples=300)
    def test_bit_equal_to_the_unbranched_kernel(self, inputs):
        _kind, remaining, decay, horizons = inputs
        got = checked_costs(remaining, decay, horizons)
        assert got.tobytes() == pre_branch_costs(remaining, decay, horizons).tobytes()

    @given(inputs=branch_inputs())
    @settings(max_examples=120)
    def test_every_branch_matches_naive(self, inputs):
        _kind, remaining, decay, horizons = inputs
        fast = checked_costs(remaining, decay, horizons)
        slow = opportunity_costs_naive(remaining, decay, horizons)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-6)
