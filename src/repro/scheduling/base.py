"""Heuristic interface and the shared vectorized yield arithmetic.

The quantities every heuristic needs, computed as NumPy vectors over a
pool of pending tasks at decision time ``now``:

* ``current_delays`` — Eq. 2's delay assuming the remaining work starts
  now: ``max(0, now + RPT − arrival − runtime)``.
* ``expiration_delays`` — per task, the delay at which its value function
  stops decaying, ``(value + bound) / decay``.  No clock enters it, so
  it is a column computed once per row, not a per-instant vector.
* ``decay_horizons`` — per task, how much longer its value function can
  keep decaying (``inf`` for unbounded penalties; 0 once expired).  This
  is the ``expire_j`` term of Eq. 4.
* ``effective_decay`` — the decay rate with expired tasks zeroed:
  "once a task has expired it may be deferred to the end of the schedule
  with no further cost" (§5.3).

:meth:`RewardHeuristic.scores` is the one scoring body of FirstPrice,
PresentValue and FirstReward, in two forms.

**Affine rows.**  Where no row expires (``PoolColumns.expiring == 0``:
every penalty is unbounded, so the Eq. 1 floor never binds and Eq. 4 is
Eq. 5), every quantity of a row except the clock is fixed when the row
is written, and the score of row *i* is affine in the time the row has
been late:

    score_i = head_i − slope_i · max(now − late_i, 0) − cost_i · Σ_j d_j

``late_i = arrival + runtime − RPT`` is the instant the row starts being
late; ``head``, ``slope`` and ``cost`` fold in α, the discount rate and
the :data:`MIN_REMAINING` clamp (:func:`affine_coefficients`).  A pool
writes these rows beside ``expiration`` and a pool view carries them
(:meth:`PoolColumns.affine`), so such a score is a handful of vector
operations instead of the ~20 of the row form.  An on-time row scores
``head − cost·Σd`` exactly, whatever its ``late``, so rows tied in the
row form stay tied.  Values agree with the row form to rounding (the
property suite holds them to rtol 1e-12); orderings agree.

**The row form** (:func:`row_scores`) scores every other view: a pool's
view where some row can expire — every row, or a mix of bounded and
unbounded — a never-expires view under a key other than the one the
pool's rows are written for, and a hand-built view.  It computes the
delays once and derives the yields, horizons and effective decay from
them as locals, with Eq. 4's cost from the one kernel
(:mod:`repro.scheduling.cost`); there a score can be ``α·PV/RPT`` with a
``±0.0`` cost, a whole-pool tie that pool order settles, so the floats
are Eq. 4's own, bit for bit.  On a pool's view that can expire it
reads the pool's second count: the rows at their floor — horizon
exactly 0, raw yield strictly below ``−bound`` — whose yield is
``−bound`` at every later clock reading (see
:mod:`repro.scheduling.pool`); it scores them from the terms the pool
stores and computes only the others row by row.
"""

from __future__ import annotations

import abc
from typing import Any, Optional

import numpy as np

from repro.errors import SchedulingError
from repro.scheduling.cost import saturating_costs


def expiration_delays(
    value: np.ndarray, decay: np.ndarray, bound: np.ndarray
) -> np.ndarray:
    """The delay at which each value function stops decaying.

    ``(value + bound) / decay``: ``inf`` for an unbounded penalty, 0 for
    a task that never decays (delay never costs it anything).
    :class:`~repro.scheduling.pool.PendingPool` writes the same quantity
    one row at a time (``_write_row``); a property test ties the two bit
    for bit.
    """
    # inf (bound=inf) and overflow for vanishing decay rates are both
    # semantically "effectively never expires"
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(decay > 0.0, (value + bound) / decay, 0.0)


#: The public fields of a :class:`PoolColumns`, in constructor order.
_FIELDS = (
    "arrival",
    "runtime",
    "remaining",
    "value",
    "decay",
    "bound",
    "expiration",
    "expiring",
)


class PoolColumns:
    """Structure-of-arrays view over pending tasks.

    All arrays share one index space; ``remaining`` is the paper's RPT
    (differs from ``runtime`` only for preempted tasks).  ``expiration``
    is derived from ``value``/``decay``/``bound``
    (:func:`expiration_delays`) and ``expiring`` from ``expiration``: how
    many entries are not ``+inf``.  ``expiring == 0`` is the
    unbounded-penalty regime (:attr:`never_expires`: no horizon is finite
    and no decay rate is ever zeroed); ``expiring == len`` is the bounded
    one, where every horizon is finite.  The pool passes the column and
    the count it maintains, anyone else leaves both out; a column passed
    without its count leaves the count unknown (``None``), and the row
    form then finds the rows that never expire one by one, which is
    right in every regime.  A view is a value: nothing rebinds or writes
    its columns after construction.

    A view taken from a :class:`~repro.scheduling.pool.PendingPool` also
    reaches the pool's row state: its affine-score rows while it never
    expires (:meth:`affine`), its rows at their floor while some row can
    expire (:func:`row_scores`), and its Eq. 4 inputs are non-negative by
    construction.  A hand-built view has none of these: its columns are
    checked once, here — equal lengths, and no negative RPT or decay.
    """

    __slots__ = (*_FIELDS, "_source")

    def __init__(
        self,
        arrival: np.ndarray,
        runtime: np.ndarray,
        remaining: np.ndarray,
        value: np.ndarray,
        decay: np.ndarray,
        bound: np.ndarray,  # penalty bound; inf = unbounded
        expiration: Optional[np.ndarray] = None,
        expiring: Optional[int] = None,
    ) -> None:
        self.arrival = arrival
        self.runtime = runtime
        self.remaining = remaining
        self.value = value
        self.decay = decay
        self.bound = bound
        if expiring is None:
            # built by hand: checked once here, where a pool's rows are
            # sound by construction
            n = len(remaining)
            columns = (arrival, runtime, value, decay, bound)
            if any(len(column) != n for column in columns) or (
                expiration is not None and len(expiration) != n
            ):
                raise SchedulingError("cost inputs must have equal length")
            if (remaining < 0).any() or (decay < 0).any():
                raise SchedulingError("cost inputs must be non-negative")
        if expiration is None:
            expiration = expiration_delays(value, decay, bound)
            expiring = len(expiration) - int(np.count_nonzero(np.isposinf(expiration)))
        self.expiration = expiration
        self.expiring = expiring
        # the pool's row state; the pool sets it on its own views (see
        # PendingPool._view)
        self._source: Any = None

    @property
    def never_expires(self) -> bool:
        """No row can expire: every ``expiration`` is ``+inf``."""
        return self.expiring == 0

    def __len__(self) -> int:
        return len(self.arrival)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in _FIELDS
        )
        return f"PoolColumns({fields})"

    def affine(self, key: tuple[float, float]) -> Optional[np.ndarray]:
        """The ``(4, n)`` rows ``late, head, slope, cost`` for the
        ``(alpha, discount_rate)`` *key*, or ``None`` (no pool behind the
        view, some row expires, or the pool holds another key's rows)."""
        source = self._source
        if source is None or self.expiring:
            return None
        return source.rows(key, len(self))

    @classmethod
    def empty(cls) -> "PoolColumns":
        z = np.empty(0)
        return cls(z, z, z, z, z, z)


#: Smallest RPT used as a unit-gain denominator.  A task can legitimately
#: have zero remaining time (its completion event is due at this very
#: instant, e.g. during a same-timestamp preemption pass); clamping keeps
#: its unit gain finite and enormous — it is almost-free to finish.
MIN_REMAINING = 1e-9


def unit_denominator(cols: PoolColumns) -> np.ndarray:
    """RPT clamped away from zero for per-unit-of-time scores."""
    return np.maximum(cols.remaining, MIN_REMAINING)


def affine_coefficients(
    arrival: np.ndarray,
    runtime: np.ndarray,
    remaining: np.ndarray,
    value: np.ndarray,
    decay: np.ndarray,
    alpha: float,
    rate: float,
) -> np.ndarray:
    """The ``(4, n)`` rows ``late, head, slope, cost`` of the affine score.

    With ``R`` the RPT, ``Rc = max(R, MIN_REMAINING)`` and ``g = 1 + r·R``
    (Eq. 3's discount), FirstReward's Eq. 6 over Eq. 5's cost
    ``R·Σd − d·R`` splits into ``head = α·(v/g)/Rc + (1−α)·(d·R)/Rc``,
    ``slope = α·(d/g)/Rc`` and ``cost = (1−α)·R/Rc``; FirstPrice is
    ``(1, 0)`` and PresentValue ``(1, r)``.  Only a pool writes these
    rows, and its inputs are non-negative by construction.
    :class:`~repro.scheduling.pool.PendingPool`
    writes the same rows one row at a time (``_write_row``); a property
    test ties the two bit for bit.
    """
    denom = np.maximum(remaining, MIN_REMAINING)
    growth = 1.0 + rate * remaining
    rows = np.empty((4, len(arrival)))
    rows[0] = arrival + runtime - remaining
    rows[1] = alpha * (value / growth) / denom + (1.0 - alpha) * (decay * remaining) / denom
    rows[2] = alpha * (decay / growth) / denom
    rows[3] = (1.0 - alpha) * remaining / denom
    return rows


def affine_scores(
    cols: PoolColumns, now: float, key: tuple[float, float]
) -> Optional[np.ndarray]:
    """The never-expires score of every row of *cols* at *now*, or ``None``
    when the view carries no coefficient rows for the ``(alpha, rate)``
    *key* — the caller then takes the row form."""
    rows = cols.affine(key)
    if rows is None:
        return None
    late, head, slope, cost = rows
    scores = np.subtract(now, late)
    np.maximum(scores, 0.0, out=scores)
    scores *= slope
    np.subtract(head, scores, out=scores)
    if key[0] != 1.0:
        scores -= cost * float(cols.decay.sum())
    return scores


#: Fewest unmarked candidate rows a scoring that computes a cost marks at
#: once.  Every mark leaves the sorted floor arrays to be rebuilt — a
#: sort of every row at its floor — so marks are batched while a cost is
#: computed; where none is (nothing decays, or α = 1) no sort is needed
#: and the scoring marks whatever it finds, so the next one can skip the
#: per-row path.  Any value gives the same scores.
_MARK_BATCH = 32

#: The floor terms of a view with no rows at their floor.
_NO_FLOOR = np.empty((3, 0))


def floor_terms(bound: np.ndarray, rpt: np.ndarray, key: tuple[float, float]) -> np.ndarray:
    """The ``(3, k)`` clock-free terms ``α·pv, denom, rpt`` of rows at
    their floor for the ``(alpha, rate)`` *key*.

    Such a row yields exactly ``−bound`` (``np.maximum`` returns it for a
    raw yield below it), so these are the row form's ``α·PV`` and
    ``max(RPT, MIN_REMAINING)`` for the row, operation for operation.
    """
    alpha, rate = key
    return np.array((alpha * (-bound / (1.0 + rate * rpt)), np.maximum(rpt, MIN_REMAINING), rpt))


def row_scores(
    cols: PoolColumns, now: float, key: tuple[float, float]
) -> np.ndarray:
    """The score of every row of *cols* at *now* for the ``(alpha, rate)``
    *key*, in any regime: the form every view takes that the affine rows
    do not serve.

    ``(α·PV − (1 − α)·cost) / RPT``: FirstReward's Eq. 6, PresentValue at
    ``α = 1`` and FirstPrice at ``(1, 0)`` (``x / 1.0`` and ``1.0 · x`` are
    ``x``), with Eq. 4's cost from
    :func:`~repro.scheduling.cost.saturating_costs` over the competitors
    that still decay: the finite horizons sorted, the ``+inf`` ones as one
    unbounded weight (all of them where no row expires: Eq. 5), ``+0.0``
    when nothing decays.  Where the view's count of rows that can expire
    says every row can, the rows that still decay are the live ones; any
    other view (none can, a mix, or a hand-passed ``expiration`` column
    with no count) is sorted out by one mask of its ``+inf`` rows.  On a
    pool's view that can expire, rows at
    their floor (see :mod:`repro.scheduling.pool`) score from the terms
    the pool keeps for them: the stored score when nothing in the view
    decays, else the stored ``α·PV`` less a cost counted by the kernel's
    merge.  Only the other rows — probed rows included — get per-row
    arithmetic, and the pool rows among them found at their floor are
    marked.  Every score is the float of Eq. 6 over the plain statement
    of Eq. 4, bit for bit (``tests/property/test_bounded_scores.py``).
    """
    source = cols._source
    n = len(cols)
    expiring = cols.expiring
    alpha, rate = key
    serves = source is not None and bool(expiring) and source.floor_rows(key, now)
    floored = source.count if serves else 0
    if floored and floored == n:
        # every row is a pool row at its floor: nothing decays
        return source.floor_scores(n)
    if not floored:
        other = None
        rows = (cols.arrival, cols.runtime, cols.remaining, cols.value, cols.decay,
                cols.bound, cols.expiration)
    else:
        other = slice(source.pending, n) if floored == source.pending else source.open_rows(n)
        rows = source.columns(other)
    arrival, runtime, remaining, value, decay, bound, expiration = rows
    delays = np.maximum(0.0, now + remaining - arrival - runtime)
    raw = value - delays * decay
    pv = np.maximum(raw, -bound) / (1.0 + rate * remaining)
    denom = np.maximum(remaining, MIN_REMAINING)
    # the horizon wherever it is positive, which is exactly where the row
    # still decays (a row that never decays expires at 0)
    left = expiration - delays
    decaying = left > 0.0
    # the decaying rows with a finite horizon, and the weight of the ones
    # whose horizon is +inf
    weight = 0.0
    if alpha == 1.0:
        live = None
    elif expiring == n:  # every horizon is finite
        live = decaying.nonzero()[0]
    else:  # none is (Eq. 5), a mix, or a count nobody passed
        unbounded = expiration == np.inf
        live = (decaying > unbounded).nonzero()[0]
        weight = float(decay.compress(unbounded).sum())
    # an unbounded row always decays, and is never at its floor
    costed = live is not None and (len(live) > 0 or expiring != n)
    if not costed:
        scores = alpha * pv / denom
        if floored:
            full = source.floor_scores(n)
    else:
        order, floor = source.ranked() if floored else (None, _NO_FLOOR)
        floor_pv, floor_denom, rpt = floor
        cost, floor_cost = saturating_costs(
            remaining, decay, np.maximum(0.0, left), decaying, live, rpt, weight
        )
        scores = (alpha * pv - (1.0 - alpha) * cost) / denom
        if floored:
            full = np.empty(n)
            full[order] = (floor_pv - (1.0 - alpha) * floor_cost) / floor_denom
    if not serves:
        return scores
    # the pool rows come first among these; a row at its floor does not decay
    first = len(remaining) - (n - source.pending)
    # rows not decaying and not yet marked: at their floor, or never to be
    # (a zero decay, a raw yield of exactly −bound)
    unmarked = first - np.count_nonzero(decaying[:first]) if first else 0
    if unmarked >= _MARK_BATCH or unmarked and not costed:
        new = ((left[:first] <= 0.0) & (raw[:first] < -bound[:first])).nonzero()[0]
        if len(new):
            apv, denom, _ = floor_terms(bound.take(new), remaining.take(new), key)
            source.mark(new if other is None else other.take(new), apv / denom, now)
    if not floored:
        return scores
    full[other] = scores
    return full


def current_delays(cols: PoolColumns, now: float) -> np.ndarray:
    """Expected delay of each task if its remaining work started *now* (Eq. 2)."""
    return np.maximum(0.0, now + cols.remaining - cols.arrival - cols.runtime)


def decay_horizons(cols: PoolColumns, now: float) -> np.ndarray:
    """Remaining decay time per task, measured from *now* (Eq. 4's expire term).

    A bounded task stops decaying once its delay reaches
    ``(value + bound)/decay``; the horizon is how much further delay can
    still cost anything.  Unbounded tasks return ``inf``; zero-decay
    tasks return 0 (delay never costs anything).
    """
    if cols.never_expires:
        return cols.expiration  # inf − any delay: all inf, whatever the clock
    # unbounded (bound=inf) with positive decay -> infinite horizon
    return np.maximum(0.0, cols.expiration - current_delays(cols, now))


def effective_decay(cols: PoolColumns, now: float) -> np.ndarray:
    """Decay rates with expired tasks zeroed (they cost nothing to defer)."""
    if cols.never_expires:
        return cols.decay  # every horizon is inf: nothing is zeroed
    return np.where(decay_horizons(cols, now) > 0.0, cols.decay, 0.0)


class SchedulingHeuristic(abc.ABC):
    """Assigns priority scores to pending tasks; higher runs first.

    Scores are recomputed at every scheduling event (arrival, completion,
    preemption) because yields decay with the clock; FirstPrice,
    PresentValue and FirstReward all score through
    :class:`RewardHeuristic`.
    """

    #: short identifier used by the registry and experiment configs
    name: str = "heuristic"

    #: The ``(alpha, discount_rate)`` of this heuristic's Eq. 6 score, or
    #: ``None``: FirstPrice ``(1, 0)``, PresentValue ``(1, r)``,
    #: FirstReward ``(α, r)``.  The key drives both forms of
    #: :meth:`RewardHeuristic.scores` — it names the pool's affine rows
    #: where no row expires, and the row form's ``α`` and ``r`` and the
    #: pool's floor terms elsewhere — and admission ranks a
    #: shallow never-expires probe from the pool's coefficient rows
    #: without calling :meth:`scores`.  A wrapper inherits ``None``: its
    #: scores are not these.
    affine_key: Optional[tuple[float, float]] = None

    @abc.abstractmethod
    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        """Score vector aligned with *cols*; higher = dispatch first."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class RewardHeuristic(SchedulingHeuristic):
    """The FirstReward family (§5.1–§5.3), scored by one body.

    ``(α·PV − (1 − α)·cost) / RPT`` at :attr:`affine_key` ``= (α, r)``:
    FirstReward at its own key, PresentValue at ``(1, r)``, FirstPrice
    at ``(1, 0)``.  At ``α = 1`` no cost is computed, and ``x / 1.0`` is
    ``x``, so the scores are Eq. 3's ``PV/RPT`` and the unit gain
    ``yield/RPT`` bit for bit.  A pool's view takes its affine rows where
    no row expires; every other view — a pool's that can expire, whether
    every row can or some, a second key's, a hand-built one — takes the
    row form (:func:`row_scores`), Eq. 4's cost included (on a view that
    never expires every horizon is ``inf``: Eq. 5).
    """

    affine_key: tuple[float, float]

    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        scores = affine_scores(cols, now, self.affine_key)
        if scores is None:
            scores = row_scores(cols, now, self.affine_key)
        return scores
