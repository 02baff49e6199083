"""The input domain every score is computed on.

A site ranks work by one real score per task (Eq. 6), so scores must be
finite.  They are when every magnitude entering them is at most
``B = MAX_MAGNITUDE``: a yield ``value − delay·decay`` over a clock a
pool of ``n`` tasks runs to ``(n + 1)·B``, divided by the 1e-9 RPT
clamp (``MIN_REMAINING``), stays within ``(n + 2)·B²/1e-9`` ≈
``n·1e209``, below the largest float (1.8e308) for any pool a site can
hold.  The bound is checked where inputs enter — value functions, task
times, bids, HTTP bid bodies, discount rates — and nowhere downstream.
"""

#: Largest magnitude of a value, decay rate, penalty bound, arrival,
#: runtime, estimate or discount rate.
MAX_MAGNITUDE = 1e100


def checked_rate(rate: float, error: type) -> float:
    """*rate* as a float, or *error* unless ``0 ≤ rate ≤ MAX_MAGNITUDE``."""
    if not 0 <= rate <= MAX_MAGNITUDE:
        raise error(f"discount_rate must be in [0, {MAX_MAGNITUDE:g}], got {rate!r}")
    return float(rate)
