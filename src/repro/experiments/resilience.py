"""Resilience experiment — a chaos sweep over MTTF × failover budget.

Not a paper figure: the paper's market assumes sites honour every
contract.  This extension injects node churn at each site (the
``repro.faults`` crash/repair cycles with ``restart="abandon"``, so a
killed task breaches its contract) and asks how much of the breached
value failover re-bidding claws back:

* the *disabled* policy is the plain market under the same chaos —
  breaches settle at the penalty floor and the value is simply lost;
* each ``budget=N`` policy attaches a
  :class:`~repro.resilience.manager.ResilienceManager` that re-bids a
  breached task to the other sites, up to N times per lineage, on the
  same plain broker — every site still quotes every bid.

Every (mttf, policy, seed) point shares the workload trace and the
per-site fault streams — common random numbers, so the budget axis
isolates the recovery policy: the same crashes hit the same schedules
and only the response differs.  Expected shape: recovered value is
strictly positive, grows (weakly) with the budget, failover never earns
less than the plain market, and no lineage ever completes on two sites.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.experiments.common import FigureResult
from repro.experiments.parallel import sweep
from repro.faults.spec import FaultSpec
from repro.resilience.driver import (
    N_SITES,
    PROCESSORS_PER_SITE,
    simulate_resilient_market,
)
from repro.scheduling.firstreward import FirstReward
from repro.site.admission import SlackAdmission
from repro.workload.generator import generate_trace
from repro.workload.millennium import economy_spec

#: Sweep grid defaults: per-node MTTF (mean task duration is 100) and
#: failover re-bid budgets per task lineage.
MTTFS = (2000.0, 1000.0, 500.0, 250.0)
BUDGETS = (1, 3)
MTTR = 100.0
ALPHA = 0.2
DISCOUNT_RATE = 0.01
SLACK_THRESHOLD = 180.0
LOAD_FACTOR = 1.5
VALUE_SKEW = 3.0
DECAY_SKEW = 5.0
PENALTY_BOUND = 2.0  # bounded penalties: breaches are legal (and priced)

#: Resilience-summary columns carried into each result row.
_RES_KEYS = (
    "breaches",
    "failovers_attempted",
    "failovers_contracted",
    "failovers_completed",
    "value_recovered",
    "value_lost_to_breach",
    "lineages_exhausted",
    "double_completions",
)


def _one_run(spec, mttf: float, failover_budget: int, seed: int) -> dict:
    """One (mttf, policy, seed) cell — picklable for worker fan-out."""
    trace = generate_trace(spec, seed=seed)
    faults = FaultSpec(mttf=mttf, mttr=MTTR, restart="abandon")
    result = simulate_resilient_market(
        trace,
        heuristic_factory=lambda: FirstReward(ALPHA, DISCOUNT_RATE),
        admission_factory=lambda: SlackAdmission(SLACK_THRESHOLD, DISCOUNT_RATE),
        failover_budget=failover_budget,
        faults=faults,
        fault_seed=seed,
    )
    resilience = result.manager.summary()
    row = {
        "total_revenue": result.total_revenue,
        "accepted": float(result.economy.accepted),
        "crashes": float(result.fault_stats.crashes),
        "tasks_killed": float(result.fault_stats.tasks_killed),
    }
    for key in _RES_KEYS:
        row[key] = float(resilience[key])
    return row


def run_resilience(
    n_jobs: int = 300,
    seeds: Sequence[int] = (0, 1),
    mttfs: Sequence[float] = MTTFS,
    budgets: Sequence[int] = BUDGETS,
    workers: Optional[int] = None,
) -> FigureResult:
    """Sweep MTTF × failover budget; one row per (policy, mttf).

    The ``disabled`` policy (plain market, no recovery layer) anchors
    each MTTF; ``budget=N`` policies fail breached tasks over with that
    budget.  Rows average the per-seed runs.
    """
    result = FigureResult(
        figure="resilience",
        title="Value recovered vs node MTTF under market-level failover",
        notes=[
            f"economy mix: value skew {VALUE_SKEW}, decay skew {DECAY_SKEW}, "
            f"penalty bound {PENALTY_BOUND:g}x, load factor {LOAD_FACTOR:g}, "
            f"n={n_jobs}, seeds={list(seeds)}",
            f"market: {N_SITES} sites x {PROCESSORS_PER_SITE} processors, "
            f"FirstReward(alpha={ALPHA:g}) + slack admission "
            f"({SLACK_THRESHOLD:g})",
            f"chaos: mttr={MTTR:g}, restart=abandon (crashes breach "
            f"contracts), common random numbers across the budget axis",
            f"failover: budgets={list(budgets)}; 'disabled' is the plain market",
        ],
    )
    spec = economy_spec(
        n_jobs=n_jobs,
        value_skew=VALUE_SKEW,
        decay_skew=DECAY_SKEW,
        load_factor=LOAD_FACTOR,
        processors=N_SITES * PROCESSORS_PER_SITE,
        penalty_bound=PENALTY_BOUND,
    )
    policies = [("disabled", 0)]
    policies += [(f"budget={budget}", budget) for budget in budgets]
    cells = {
        (mttf, policy): partial(_one_run, spec, mttf, budget)
        for mttf in mttfs
        for policy, budget in policies
    }

    def rows(v: dict) -> list[dict]:
        return [{"policy": policy, "mttf": mttf, **v[mttf, policy]} for mttf, policy in v]

    result.rows, result.seed_rows = sweep(cells, rows, seeds, workers)
    return result
