"""Slow reference implementations the tests hold the engine against.

Nothing outside ``tests/`` calls these: each is the plainest statement
of a quantity the engine computes a faster way.  The last two are the
tests' one read of state the engine keeps private.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.scheduling.base import PoolColumns, current_delays
from repro.scheduling.cost import saturating_costs
from repro.sim import Simulator
from repro.site import ProcessorPool
from repro.tasks import Task


def opportunity_costs_naive(
    remaining: np.ndarray,
    decay: np.ndarray,
    horizons: np.ndarray,
) -> np.ndarray:
    """Eq. 4 over all (i, j) pairs, O(n²): the oracle of
    :func:`opportunity_costs`."""
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


def opportunity_costs(
    remaining: np.ndarray,
    decay: np.ndarray,
    horizons: np.ndarray,
) -> np.ndarray:
    """Vectorized Eq. 4 for every task at once, O(n log n): the byte oracle
    of :func:`repro.scheduling.cost.saturating_costs` and of the row form
    :func:`repro.scheduling.base.row_scores` that calls it.

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


def kernel_costs(
    remaining: np.ndarray,
    decay: np.ndarray,
    horizons: np.ndarray,
) -> np.ndarray:
    """The shipped kernel, :func:`repro.scheduling.cost.saturating_costs`,
    on :func:`opportunity_costs`'s inputs (no checks): the rows with a
    positive decay are the decaying ones, those among them with a finite
    horizon the live ones, and the decay of the ``+inf`` rows, summed in
    row order, the unbounded weight.  No competitor is at its floor."""
    remaining = np.asarray(remaining, dtype=float)
    decay = np.asarray(decay, dtype=float)
    horizons = np.asarray(horizons, dtype=float)
    decaying = decay > 0.0
    unbounded = horizons == np.inf
    live = (decaying > unbounded).nonzero()[0]
    weight = float(decay.compress(unbounded).sum())
    cost, _ = saturating_costs(
        remaining, decay, horizons, decaying, live, np.empty(0), weight
    )
    return cost


def checked_costs(
    remaining: np.ndarray,
    decay: np.ndarray,
    horizons: np.ndarray,
) -> np.ndarray:
    """Eq. 4 by :func:`opportunity_costs`, after asserting that the shipped
    kernel (:func:`kernel_costs`) gives the same bytes on the same inputs."""
    expected = opportunity_costs(remaining, decay, horizons)
    got = kernel_costs(remaining, decay, horizons)
    assert got.tobytes() == expected.tobytes(), (got, expected)
    return expected


def current_yields(cols: PoolColumns, now: float) -> np.ndarray:
    """Expected yield of each task if started *now*: Eq. 1 at
    :func:`~repro.scheduling.base.current_delays`, with the penalty floor —
    the yields the row form :func:`repro.scheduling.base.row_scores`
    computes in place."""
    return np.maximum(cols.value - current_delays(cols, now) * cols.decay, -cols.bound)


def project_start_times(
    remaining_in_order: Sequence[float],
    free_times: Sequence[float],
) -> np.ndarray:
    """Expected start times for tasks dispatched in the given order.

    List scheduling over the whole candidate schedule: each successive
    task (RPTs in dispatch order, highest priority first) goes to the
    earliest-free processor (*free_times*: one entry per processor).
    :func:`repro.scheduling.candidate.project_next_start` is bit-identical
    to one entry of this.
    """
    if len(free_times) == 0:
        raise SchedulingError("project_start_times requires at least one processor")
    heap = [float(t) for t in free_times]
    heapq.heapify(heap)
    starts = np.empty(len(remaining_in_order))
    for pos, rpt in enumerate(remaining_in_order):
        if rpt < 0:
            raise SchedulingError(f"negative RPT {rpt!r} at position {pos}")
        t = heapq.heappop(heap)
        starts[pos] = t
        heapq.heappush(heap, t + float(rpt))
    return starts


def pending_events(sim: Simulator) -> int:
    """Live events in *sim*'s queue: a cancelled one stops counting at once.

    Counted off the heap itself, daemons included: the queue keeps only
    the essential count, and a cancelled entry stays in the heap until
    it reaches the head.
    """
    return sum(event.pending for *_, event in sim._queue._heap)


def running_tasks(pool: ProcessorPool) -> list[Task]:
    """The occupant of each busy slot of *pool*, in slot order (a gang
    task once per slot it holds)."""
    return [t for t in pool._task_of if t is not None]
