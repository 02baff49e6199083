"""Opportunity cost (Eq. 4–5 of the paper).

Running task *i* for ``RPT_i`` time units lets every competing task *j*
decay; the aggregate loss is

    cost_i = Σ_{j≠i} d_j · min(RPT_i, expire_j)                  (Eq. 4)

where ``expire_j`` is *j*'s remaining decay horizon (∞ when penalties are
unbounded, making the term ``d_j · RPT_i`` and recovering Eq. 5).

A naive evaluation over all (i, j) pairs is O(n²).  This module computes
the full cost vector in O(n log n) with a sort + prefix sums: sort the
horizons ascending; then for each i,

    Σ_j d_j · min(R_i, h_j) = Σ_{h_j ≤ R_i} d_j·h_j  +  R_i · Σ_{h_j > R_i} d_j

and both partial sums are prefix-sum lookups at ``searchsorted(h, R_i)``.
When no horizon is finite (every experiment of Fig. 3–7: unbounded
penalties) nothing saturates and the closed form of Eq. 5,
``R_i · Σ_j d_j − d_i · R_i``, needs no sort at all.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError


def opportunity_costs(
    remaining: np.ndarray,
    decay: np.ndarray,
    horizons: np.ndarray,
) -> np.ndarray:
    """Vectorized Eq. 4 for every task at once.

    Parameters
    ----------
    remaining:
        RPT vector (the candidate run lengths).
    decay:
        *Effective* decay rates — expired tasks must already be zeroed
        (see :func:`repro.scheduling.base.effective_decay`).
    horizons:
        Remaining decay horizons (``inf`` for unbounded penalties).

    Returns
    -------
    ``cost`` vector where ``cost[i] = Σ_{j≠i} decay[j] · min(remaining[i],
    horizons[j])``.
    """
    remaining = np.asarray(remaining, dtype=float)
    decay = np.asarray(decay, dtype=float)
    horizons = np.asarray(horizons, dtype=float)
    n = len(remaining)
    if len(decay) != n or len(horizons) != n:
        raise SchedulingError("cost inputs must have equal length")
    if n == 0:
        return np.empty(0)
    if (remaining < 0).any() or (decay < 0).any() or (horizons < 0).any():
        raise SchedulingError("cost inputs must be non-negative")

    finite = np.isfinite(horizons)
    n_finite = np.count_nonzero(finite)
    if n_finite == 0:
        # Eq. 5: every competitor decays for the whole run, so the sum
        # collapses to R_i · Σ_j d_j minus the task's own d_i · R_i.  The
        # general path below reduces to exactly these operations in this
        # order when nothing saturates, so the bits agree.
        return remaining * float(decay.sum()) - decay * remaining
    if n_finite == n:
        h_fin, d_fin, w_unbounded = horizons, decay, 0.0
    else:
        h_fin = horizons[finite]
        d_fin = decay[finite]
        # weight of unbounded competitors: they always contribute d_j * R_i
        w_unbounded = float(decay[~finite].sum())

    order = np.argsort(h_fin)
    h_sorted = h_fin[order]
    d_sorted = d_fin[order]
    # prefix sums with a leading zero so index k means "first k entries"
    prefix_dh = np.empty(n_finite + 1)
    prefix_dh[0] = 0.0
    np.cumsum(d_sorted * h_sorted, out=prefix_dh[1:])
    prefix_d = np.empty(n_finite + 1)
    prefix_d[0] = 0.0
    np.cumsum(d_sorted, out=prefix_d[1:])
    total_d_fin = prefix_d[-1]

    k = np.searchsorted(h_sorted, remaining, side="right")
    saturated = prefix_dh[k]                      # Σ d_j h_j over h_j ≤ R_i
    linear = remaining * (total_d_fin - prefix_d[k] + w_unbounded)
    cost = saturated + linear

    # remove each task's own contribution (j ≠ i)
    self_term = decay * np.minimum(remaining, horizons)
    # d_j = 0 for zero-horizon/expired tasks, so inf*0 cannot occur: min() is safe
    return cost - self_term


def opportunity_costs_naive(
    remaining: np.ndarray,
    decay: np.ndarray,
    horizons: np.ndarray,
) -> np.ndarray:
    """O(n²) reference implementation (oracle for tests)."""
    remaining = np.asarray(remaining, dtype=float)
    decay = np.asarray(decay, dtype=float)
    horizons = np.asarray(horizons, dtype=float)
    n = len(remaining)
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j == i:
                continue
            total += decay[j] * min(remaining[i], horizons[j])
        out[i] = total
    return out
