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
Only competitors that still weigh something (``d_j > 0``) are sorted: an
expired one adds exactly ``+0.0`` to both sums wherever it sorts (§5.3:
it "may be deferred to the end of the schedule with no further cost").

Which form runs follows the regime count of :mod:`repro.scheduling.pool`
(``PoolColumns.expiring``, how many rows can expire):

* **None can** (unbounded penalties: Fig. 5–7 and the market): nothing
  saturates and Eq. 5's closed form, ``R_i · Σ_j d_j − d_i · R_i``,
  needs no sort.  On a pool's own view even that is not evaluated per
  call: ``d_i · R_i`` is clock-free, so FirstReward folds it into the
  coefficient rows the pool writes once per row
  (:func:`~repro.scheduling.base.affine_coefficients`) and only
  ``Σ_j d_j`` is read at the decision instant.  Any other never-expiring
  view (hand-built, or scored by a second heuristic) takes Eq. 5's
  branch of :func:`opportunity_costs`.
* **Every row can** (penalties bounded: Fig. 3, Fig. 4 and the bench's
  ``preempt`` cell): on a pool's view FirstReward calls
  :func:`saturating_costs` with the rows that still decay, or no kernel
  at all when none does; the pool checks the inputs as it writes them.
* **A mix**, or a hand-built view: :func:`opportunity_costs`, census and
  checks included.

The bounded forms give the same floats as :func:`opportunity_costs` on
the same inputs (``tests/property/test_bounded_scores.py`` holds the
scores to the bytes); the affine rows agree with it to rtol 1e-12.
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
        # Eq. 5: every competitor decays for the whole run; the general
        # kernel reduces to exactly these operations in this order when
        # nothing saturates, so the bits agree
        return remaining * float(decay.sum()) - decay * remaining
    # weight of unbounded competitors: they always contribute d_j * R_i
    w_unbounded = 0.0 if n_finite == n else float(decay[~finite].sum())
    # the competitors that can saturate and still weigh something
    live = finite & (decay > 0.0)
    n_live = np.count_nonzero(live)
    if n_live == n:
        h_live, d_live = horizons, decay
    else:
        h_live = horizons[live]
        d_live = decay[live]

    # stable, like every sort in the engine: tied horizons keep pool
    # order, so the sums below accumulate in one order on every machine
    order = np.argsort(h_live, kind="stable")
    h_sorted = h_live[order]
    d_sorted = d_live[order]
    # prefix sums with a leading zero so index k means "first k entries"
    prefix_dh = np.empty(n_live + 1)
    prefix_dh[0] = 0.0
    np.cumsum(d_sorted * h_sorted, out=prefix_dh[1:])
    prefix_d = np.empty(n_live + 1)
    prefix_d[0] = 0.0
    np.cumsum(d_sorted, out=prefix_d[1:])
    total_d_live = prefix_d[-1]

    k = np.searchsorted(h_sorted, remaining, side="right")
    saturated = prefix_dh[k]                      # Σ d_j h_j over h_j ≤ R_i
    linear = remaining * (total_d_live - prefix_d[k] + w_unbounded)
    cost = saturated + linear

    # remove each task's own contribution (j ≠ i)
    self_term = decay * np.minimum(remaining, horizons)
    # d_j = 0 for zero-horizon/expired tasks, so inf*0 cannot occur: min() is safe
    return cost - self_term


def saturating_costs(
    remaining: np.ndarray,
    decay: np.ndarray,
    horizons: np.ndarray,
    live: np.ndarray,
) -> np.ndarray:
    """Eq. 4 where every horizon is finite, on inputs checked at the write.

    *live* indexes, ascending, the rows whose effective *decay* is
    positive (at least one); every other row's decay is ``+0.0``.  The
    same floats as :func:`opportunity_costs` on the same inputs, with its
    checks and regime census left to the caller: no unbounded weight is
    added (``x + 0.0`` is ``x`` for the non-negative difference it would
    be added to), and the self-term is subtracted on the live rows only —
    on any other row it is ``0.0 · min(R, h) = +0.0`` for a finite,
    non-negative RPT, and ``x − 0.0`` is ``x``.
    """
    h_live = horizons[live]
    d_live = decay[live]
    order = np.argsort(h_live, kind="stable")
    h_sorted = h_live[order]
    d_sorted = d_live[order]
    prefix_dh = np.empty(len(live) + 1)
    prefix_dh[0] = 0.0
    np.cumsum(d_sorted * h_sorted, out=prefix_dh[1:])
    prefix_d = np.empty(len(live) + 1)
    prefix_d[0] = 0.0
    np.cumsum(d_sorted, out=prefix_d[1:])
    k = np.searchsorted(h_sorted, remaining, side="right")
    cost = prefix_dh[k]
    cost += remaining * (prefix_d[-1] - prefix_d[k])
    cost[live] -= d_live * np.minimum(remaining[live], h_live)
    return cost
