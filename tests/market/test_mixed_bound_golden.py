"""A market on mixed penalty bounds, pinned to committed books.

``repro serve`` takes bids with and without a penalty ``bound``, so a
live site's pool can hold bounded and unbounded rows at once.  Such a
pool gets no affine rows (some row expires), so every scoring of it
takes the row form, Eq. 6 over the one Eq. 4 kernel: its finite
horizons sorted, its unbounded rows as one weight, and its rows at their
floor, once marked, read from the pool.  No experiment and no bench
workload mixes bounds; this run does.  Three
slack-admission sites — FirstPrice, PresentValue and FirstReward, the
one family at ``(1, 0)``, ``(1, r)`` and ``(α, r)`` — negotiate an
economy trace whose every other bid is unbounded, and the summary and
every bid's fate must equal ``golden/mixed_bounds_s<seed>.json``, as
written by::

    PYTHONPATH=src:. python -m tests.market.test_mixed_bound_golden
"""

import json
import pathlib

import numpy as np
import pytest

from repro.market import MarketSite, run_market
from repro.scheduling import FirstPrice, FirstReward, PresentValue
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.workload import Trace, economy_spec, generate_trace

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEEDS = (0, 1)


def mixed_trace(seed: int) -> Trace:
    """An economy trace bounded at 0 with every other bid made unbounded."""
    spec = economy_spec(n_jobs=300, load_factor=1.5, processors=12, penalty_bound=0.0)
    trace = generate_trace(spec, seed=seed)
    bound = np.array(trace.bound)
    bound[1::2] = np.inf
    return Trace(trace.arrival, trace.runtime, trace.value, trace.decay, bound, trace.estimate)


def run_mixed_market(seed: int) -> dict:
    """The summary and per-bid fates of the mixed-bound market at *seed*."""
    sim = Simulator()
    heuristics = (FirstPrice(), PresentValue(0.01), FirstReward(0.3, 0.01))
    sites = [
        MarketSite(sim, f"site-{i}", 4, heuristic, admission=SlackAdmission(180.0))
        for i, heuristic in enumerate(heuristics)
    ]
    result = run_market(mixed_trace(seed), sites)
    fates = [
        [
            o.accepted,
            o.winner.site_id if o.winner is not None else None,
            len(o.quotes),
            o.contract.actual_completion if o.contract is not None else None,
            o.contract.actual_price if o.contract is not None else None,
        ]
        for o in result.outcomes
    ]
    return {"summary": result.summary(), "fates": fates}


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def golden_path(seed: int) -> pathlib.Path:
    return GOLDEN / f"mixed_bounds_s{seed}.json"


def test_the_trace_mixes_bounds():
    trace = mixed_trace(0)
    assert np.isfinite(trace.bound[0::2]).all()
    assert np.isposinf(trace.bound[1::2]).all()


@pytest.mark.parametrize("seed", SEEDS)
def test_books_equal_the_golden(seed):
    assert canonical(run_mixed_market(seed)) == golden_path(seed).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for seed in SEEDS:
        golden_path(seed).write_text(canonical(run_mixed_market(seed)))
