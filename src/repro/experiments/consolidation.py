"""Extension experiment: private clusters vs a consolidated utility vs a market.

The paper's introduction motivates grids with exactly this comparison:
"Linking clusters together in grids can improve resource efficiency;
consolidating small private clusters into cluster utilities can reduce
management cost and bring more compute power to each user on demand."

This experiment quantifies that claim inside the paper's own yield
model.  One task stream of total load L against capacity C is served
three ways:

* **private** — K isolated sites of C/K nodes; each user group's tasks
  go to its own site (round-robin assignment, no sharing);
* **consolidated** — one C-node site receiving everything;
* **market** — K sites of C/K nodes behind a broker (Fig. 1): statistical
  multiplexing recovered through negotiation instead of merging.

All three use the same FirstReward scheduling; rows report total yield
and mean delay per organization.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.experiments.common import FigureResult
from repro.experiments.parallel import sweep
from repro.market.broker import Broker
from repro.market.economy import MarketEconomy
from repro.market.sites import MarketSite
from repro.scheduling.firstreward import FirstReward
from repro.sim.kernel import Simulator
from repro.site.driver import simulate_site
from repro.workload.generator import generate_trace
from repro.workload.millennium import economy_spec
from repro.workload.trace import Trace

DISCOUNT_RATE = 0.01
ALPHA = 0.3


def _split_round_robin(trace: Trace, k: int) -> list[Trace]:
    """Assign tasks to K organizations round-robin (arrival order)."""
    indices = [list(range(i, len(trace), k)) for i in range(k)]
    return [
        Trace(
            trace.arrival[idx],
            trace.runtime[idx],
            trace.value[idx],
            trace.decay[idx],
            trace.bound[idx],
            trace.estimate[idx],
            name=f"{trace.name}/org{i}",
        )
        for i, idx in enumerate(indices)
    ]


def _private(trace: Trace, k: int, processors: int) -> dict:
    per_site = processors // k
    yields, delays = [], []
    for part in _split_round_robin(trace, k):
        result = simulate_site(
            part, FirstReward(ALPHA, DISCOUNT_RATE), processors=per_site,
            keep_records=True,
        )
        yields.append(result.total_yield)
        delays.append(result.ledger.mean_delay)
    return {"total_yield": sum(yields), "mean_delay": float(np.mean(delays))}


def _consolidated(trace: Trace, processors: int) -> dict:
    result = simulate_site(
        trace, FirstReward(ALPHA, DISCOUNT_RATE), processors=processors,
        keep_records=True,
    )
    return {"total_yield": result.total_yield, "mean_delay": result.ledger.mean_delay}


def _market(trace: Trace, k: int, processors: int) -> dict:
    from repro.site.admission import SlackAdmission

    sim = Simulator()
    sites = [
        MarketSite(
            sim,
            site_id=f"site{i}",
            processors=processors // k,
            heuristic=FirstReward(ALPHA, DISCOUNT_RATE),
            admission=SlackAdmission(threshold=-math.inf, discount_rate=DISCOUNT_RATE),
        )
        for i in range(k)
    ]
    economy = MarketEconomy(sim, Broker(sites=sites))
    economy.schedule_trace(trace)
    result = economy.run()
    delays = [
        c.actual_completion - c.signed_at - c.bid.runtime
        for s in sites
        for c in s.contracts
        if c.actual_completion is not None
    ]
    return {
        "total_yield": result.total_revenue,
        "mean_delay": float(np.mean(delays)) if delays else 0.0,
    }


_ORGANIZATIONS = ("private", "consolidated", "market")


def _org_cell(organization: str, spec, seed: int, k: int, processors: int) -> dict:
    """One (organization, load, seed) cell — regenerates the seed's trace
    locally so the cell stays a pure function of picklable inputs (the
    trace is deterministic in (spec, seed), so each organization sees the
    same stream it did when the trace was generated once and shared)."""
    trace = generate_trace(spec, seed=seed)
    if organization == "private":
        return _private(trace, k, processors)
    if organization == "consolidated":
        return _consolidated(trace, processors)
    return _market(trace, k, processors)


def run_consolidation(
    n_jobs: int = 2000,
    seeds: Sequence[int] = (0,),
    k: int = 4,
    processors: int = 16,
    load_factors: Sequence[float] = (0.7, 1.0, 1.5),
    workers: Optional[int] = None,
) -> FigureResult:
    """Compare the three organizations across load factors."""
    result = FigureResult(
        figure="consolidation",
        title=f"private {k}x{processors // k}-node clusters vs consolidated "
        f"{processors}-node utility vs market",
        notes=[
            f"economy mix, FirstReward(alpha={ALPHA}, r={DISCOUNT_RATE}), "
            f"n={n_jobs}, seeds={list(seeds)}",
            "extension experiment motivated by the paper's introduction "
            "(not part of its evaluation)",
        ],
    )
    cells = {}
    for load in load_factors:
        spec = economy_spec(
            n_jobs=n_jobs, load_factor=load, processors=processors,
            penalty_bound=0.0,
        )
        for organization in _ORGANIZATIONS:
            cells[load, organization] = partial(
                _org_cell, organization, spec, k=k, processors=processors
            )

    def rows(v: dict) -> list[dict]:
        return [
            {"load_factor": load, "organization": organization, **v[load, organization]}
            for load, organization in v
        ]

    result.rows, result.seed_rows = sweep(cells, rows, seeds, workers)
    return result
