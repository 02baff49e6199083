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

One kernel, :func:`saturating_costs`, serves every regime; the regime
count of :mod:`repro.scheduling.pool` (``PoolColumns.expiring``, how
many rows can expire) tells its caller,
:func:`~repro.scheduling.base.row_scores`, what to hand it:

* **Every row can** (penalties bounded: Fig. 3, Fig. 4 and the bench's
  ``preempt`` cell): the rows that still decay, or no kernel at all
  when none does.
* **None can** (unbounded penalties: Fig. 5–7 and the market): no row
  to sort, and every decay as one unbounded weight, so the kernel's
  sums reduce bit for bit to Eq. 5's ``R_i · Σ_j d_j − d_i · R_i``.  On
  a pool's own view even that is not evaluated per call: ``d_i · R_i``
  is clock-free, so FirstReward folds it into the coefficient rows the
  pool writes once per row
  (:func:`~repro.scheduling.base.affine_coefficients`) and only
  ``Σ_j d_j`` is read at the decision instant; only a never-expiring
  view scored under a second key, or built by hand, reaches the kernel.
* **A mix** (``repro serve`` takes bids with and without a bound): the
  finite horizons that still decay are sorted, and the rows whose
  horizon is ``+inf`` add their decay as the unbounded weight.  A view
  whose count nobody passed is sorted out row by row the same way.

Nothing is checked here: a pool's inputs are non-negative by
construction, and a hand-built view is checked where it is built
(:class:`~repro.scheduling.base.PoolColumns`).  The pool's second count
— the rows at their floor, whose RPTs it keeps sorted — is not among
the rows: their costs come from one merge of the live horizons into
those RPTs instead of a binary search per row.

The kernel's floats are those of the plain sort-and-prefix-sum
statement of Eq. 4 in ``tests/oracles.py`` on the same inputs
(``tests/property/test_bounded_scores.py`` holds the scores to the
bytes); the affine rows agree with it to rtol 1e-12.
"""

from __future__ import annotations

import numpy as np


def saturating_costs(
    remaining: np.ndarray,
    decay: np.ndarray,
    horizons: np.ndarray,
    decaying: np.ndarray,
    live: np.ndarray,
    floor: np.ndarray,
    weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 4 on a pool's inputs (non-negative by construction): the costs
    of the rows, and of the competitors at their floor.

    *decaying* flags the rows whose horizon is positive (``+inf``
    included) and *live* indexes those whose horizon is finite,
    ascending (possibly none); on a pool's rows a positive horizon
    implies a positive decay (a row that never decays expires at 0), so
    these are the rows whose effective decay is positive, and every other
    row's is ``+0.0``.  *weight* is the decay of the rows whose horizon
    is ``+inf``, summed in pool order (``0.0`` when there are none): each
    such competitor costs ``d_j · R_i`` whatever ``R_i`` is, so it joins
    the decay still running past ``R_i``, ``R·(total − d + w)``.  With no
    live row that is ``R·w`` and the self-term below ``d·R``: Eq. 5.  The
    self-term is ``d·min(R, h)`` with the decay of a row that no longer
    decays taken as ``0.0`` — ``0.0 · min(R, h) = +0.0`` for a finite,
    non-negative RPT, and ``x − 0.0`` is ``x``.  The prefix sums start
    from a ``0.0`` column that ``0.0 + x = x`` keeps exact for a
    positive ``x``.

    *floor* holds, ascending, the RPTs of competitors that no longer
    decay and are not among the rows (possibly none).  Their counts of
    live horizons at or below their RPT come from one merge: each horizon
    lands at the first floor RPT not below it, and a running sum of the
    landings is the count — the integers ``searchsorted(h, floor,
    side="right")`` gives, without a binary search per row.
    """
    h_live = horizons.take(live)
    order = h_live.argsort(kind="stable")
    h_sorted = h_live.take(order)
    d_sorted = decay.take(live.take(order))
    # prefix sums of d·h and d with a leading zero, so column k means
    # "the first k entries"
    prefix = np.zeros((2, len(live) + 1))
    np.multiply(d_sorted, h_sorted, out=prefix[0, 1:])
    prefix[1, 1:] = d_sorted
    prefix.cumsum(axis=1, out=prefix)
    total = prefix[1, -1]
    dh, d = prefix.take(h_sorted.searchsorted(remaining, side="right"), axis=1)
    cost = dh + remaining * (total - d + weight)
    cost -= (decay * decaying) * np.minimum(remaining, horizons)
    if not len(floor):
        return cost, floor
    landed = np.bincount(floor.searchsorted(h_sorted), minlength=len(floor) + 1)
    dh, d = prefix.take(landed[:-1].cumsum(), axis=1)
    return cost, dh + floor * (total - d + weight)

