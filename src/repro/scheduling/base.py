"""Heuristic interface and the shared vectorized yield arithmetic.

The quantities every heuristic needs, computed as NumPy vectors over a
pool of pending tasks at decision time ``now``:

* ``current_delays`` — Eq. 2's delay assuming the remaining work starts
  now: ``max(0, now + RPT − arrival − runtime)``.
* ``current_yields`` — Eq. 1 evaluated at those delays (with the
  penalty floor applied).
* ``expiration_delays`` — per task, the delay at which its value function
  stops decaying, ``(value + bound) / decay``.  No clock enters it, so
  it is a column computed once per row, not a per-instant vector.
* ``decay_horizons`` — per task, how much longer its value function can
  keep decaying (``inf`` for unbounded penalties; 0 once expired).  This
  is the ``expire_j`` term of Eq. 4.
* ``effective_decay`` — the decay rate with expired tasks zeroed:
  "once a task has expired it may be deferred to the end of the schedule
  with no further cost" (§5.3).

Where no row expires (``PoolColumns.expiring == 0``: every penalty is
unbounded, so the Eq. 1 floor never binds and Eq. 4 is Eq. 5), every
quantity of a row except the clock is fixed when the row is written, and
the FirstPrice / PresentValue / FirstReward score of row *i* is affine in
the time the row has been late:

    score_i = head_i − slope_i · max(now − late_i, 0) − cost_i · Σ_j d_j

``late_i = arrival + runtime − RPT`` is the instant the row starts being
late; ``head``, ``slope`` and ``cost`` fold in α, the discount rate and
the :data:`MIN_REMAINING` clamp (:func:`affine_coefficients`).  A pool
writes these rows beside ``expiration`` and a pool view carries them
(:meth:`PoolColumns.affine`), so such a score is a handful of vector
operations instead of the ~20 of the general form.  An on-time row scores
``head − cost·Σd`` exactly, whatever its ``late``, so rows tied in the
general form stay tied.  Values agree with the general form to rounding
(the property suite holds them to rtol 1e-12); orderings agree.  Bounded
pools get no such rows: there every score can be ``α·PV/RPT`` with a
``±0.0`` cost, a whole-pool tie that pool order settles, so they are
computed in the general form's own operations (see
:mod:`repro.scheduling.cost`).
"""

from __future__ import annotations

import abc
from typing import Any, Optional

import numpy as np


class _Instant:
    """The pool-derived vectors of one decision instant, filled on demand."""

    __slots__ = ("delays", "yields", "horizons", "d_eff")

    def __init__(self) -> None:
        self.delays: Optional[np.ndarray] = None
        self.yields: Optional[np.ndarray] = None
        self.horizons: Optional[np.ndarray] = None
        self.d_eff: Optional[np.ndarray] = None


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
    without its count leaves the count unknown (``None``), and the
    kernels then take their general form, which is right in every
    regime.  A view is a value: nothing rebinds or writes its columns
    after construction.

    The view also carries a one-slot memo of the vectors derived from it
    at one clock reading (:func:`current_delays`, :func:`current_yields`,
    :func:`decay_horizons`, :func:`effective_decay`), so that everything
    deciding at the same instant — the heuristic, whatever wraps it,
    admission's Eq. 8 and the expired-task discard — shares one pass.
    It lives here because heuristics arrive wrapped and only the *cols*
    argument survives the call chain.  A new clock reading replaces the
    slot; a pool mutation replaces the view.

    A view taken from a :class:`~repro.scheduling.pool.PendingPool`
    (:attr:`from_pool`) also reaches the pool's affine-score rows while
    it never expires (:meth:`affine`), and its Eq. 4 inputs are
    non-negative by construction.  A hand-built view has neither, and its
    heuristics take the general path, checks included.
    """

    __slots__ = (
        "arrival",
        "runtime",
        "remaining",
        "value",
        "decay",
        "bound",
        "expiration",
        "expiring",
        "_memo",
        "_source",
    )

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
        if expiration is None:
            expiration = expiration_delays(value, decay, bound)
            expiring = len(expiration) - int(np.count_nonzero(np.isposinf(expiration)))
        self.expiration = expiration
        self.expiring = expiring
        # at most one entry, keyed by the clock reading it was derived at
        self._memo: dict[float, _Instant] = {}
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
            f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-2]
        )
        return f"PoolColumns({fields})"

    def at(self, now: float) -> _Instant:
        """The memo slot for clock reading *now* (emptied when *now* moves)."""
        memo = self._memo
        instant = memo.get(now)
        if instant is None:
            memo.clear()
            instant = memo[now] = _Instant()
        return instant

    def affine(self, key: tuple[float, float]) -> Optional[np.ndarray]:
        """The ``(4, n)`` rows ``late, head, slope, cost`` for the
        ``(alpha, discount_rate)`` *key*, or ``None`` (no pool behind the
        view, some row expires, or the pool holds another key's rows)."""
        source = self._source
        if source is None or self.expiring:
            return None
        return source.rows(key, len(self))

    @property
    def from_pool(self) -> bool:
        """A pool's own view, not a hand-built one."""
        return self._source is not None

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
    *key* — the caller then takes the general path."""
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


def _frozen(vector: np.ndarray) -> np.ndarray:
    """*vector* marked read-only: a memoised result is handed to every caller."""
    vector.flags.writeable = False
    return vector


def current_delays(cols: PoolColumns, now: float) -> np.ndarray:
    """Expected delay of each task if its remaining work started *now* (Eq. 2)."""
    instant = cols.at(now)
    delays = instant.delays
    if delays is None:
        delays = instant.delays = _frozen(
            np.maximum(0.0, now + cols.remaining - cols.arrival - cols.runtime)
        )
    return delays


def current_yields(cols: PoolColumns, now: float) -> np.ndarray:
    """Expected yield of each task if started now (Eq. 1 with penalty floor)."""
    instant = cols.at(now)
    yields = instant.yields
    if yields is None:
        raw = cols.value - current_delays(cols, now) * cols.decay
        yields = instant.yields = _frozen(np.maximum(raw, -cols.bound))
    return yields


def decay_horizons(cols: PoolColumns, now: float) -> np.ndarray:
    """Remaining decay time per task, measured from *now* (Eq. 4's expire term).

    A bounded task stops decaying once its delay reaches
    ``(value + bound)/decay``; the horizon is how much further delay can
    still cost anything.  Unbounded tasks return ``inf``; zero-decay
    tasks return 0 (delay never costs anything).
    """
    if cols.never_expires:
        return cols.expiration  # inf − any delay: all inf, whatever the clock
    instant = cols.at(now)
    horizons = instant.horizons
    if horizons is None:
        # unbounded (bound=inf) with positive decay -> infinite horizon
        horizons = instant.horizons = _frozen(
            np.maximum(0.0, cols.expiration - current_delays(cols, now))
        )
    return horizons


def effective_decay(cols: PoolColumns, now: float) -> np.ndarray:
    """Decay rates with expired tasks zeroed (they cost nothing to defer)."""
    if cols.never_expires:
        return cols.decay  # every horizon is inf: nothing is zeroed
    instant = cols.at(now)
    d_eff = instant.d_eff
    if d_eff is None:
        d_eff = instant.d_eff = _frozen(
            np.where(decay_horizons(cols, now) > 0.0, cols.decay, 0.0)
        )
    return d_eff


class SchedulingHeuristic(abc.ABC):
    """Assigns priority scores to pending tasks; higher runs first.

    Scores are recomputed at every scheduling event (arrival, completion,
    preemption) because yields decay with the clock; where no row expires
    the clock enters FirstPrice, PresentValue and FirstReward only
    through :func:`affine_scores`.
    """

    #: short identifier used by the registry and experiment configs
    name: str = "heuristic"

    #: The ``(alpha, discount_rate)`` of the affine score this heuristic
    #: computes where no row expires (:func:`affine_scores`), or ``None``.
    #: FirstPrice, PresentValue and FirstReward set it and score with it;
    #: admission then ranks a shallow never-expires probe from the pool's
    #: coefficient rows without calling :meth:`scores`.  A wrapper
    #: inherits ``None``: its scores are not the affine ones.
    affine_key: Optional[tuple[float, float]] = None

    @abc.abstractmethod
    def scores(self, cols: PoolColumns, now: float) -> np.ndarray:
        """Score vector aligned with *cols*; higher = dispatch first."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
