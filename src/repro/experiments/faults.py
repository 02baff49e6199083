"""Faults experiment — yield vs node MTTF under fault injection.

Not a paper figure: the paper's evaluation assumes perfectly reliable
nodes.  This extension asks the natural follow-on question — how fast
does each pricing policy's yield erode as the cluster becomes less
reliable, and does risk-aware pricing (admission control + failure-aware
discounts) still pay off?

Two policies run over a common MTTF sweep:

``firstreward-ac``
    FirstReward(α) wrapped in a
    :class:`~repro.scheduling.survival.SurvivalDiscount` (candidate
    scores discounted by P(node survives the RPT)) under
    ``SlackAdmission(slack_inflation=…)`` (the required slack inflated
    per unit of believed RPT).  This is the "risk-aware" site.
``firstprice-noac``
    Plain FirstPrice with no admission control and no failure awareness
    — the "risk-oblivious" site the paper's Figure 6 also uses as its
    baseline.

Both share the workload trace and the per-node fault streams at each
(seed, MTTF) point — common random numbers, so the MTTF axis is a clean
coupling: shrinking MTTF scales the same uniform draws into strictly
earlier crashes.  Expected shape: every policy's yield decreases
monotonically as MTTF shrinks, and the risk-aware site dominates the
risk-oblivious one at every sampled MTTF.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.experiments.common import FigureResult
from repro.experiments.parallel import (
    Descriptor,
    build_admission,
    build_heuristic,
    sweep,
)
from repro.faults.spec import FaultSpec
from repro.site.driver import simulate_site
from repro.workload.generator import generate_trace
from repro.workload.millennium import economy_spec

#: Sweep grid: mean time to failure per node, in the workload's time
#: units (mean task duration is 100).  Halving steps from "a crash or
#: two per run" down to "nodes fail several times per task".
MTTFS = (8000.0, 4000.0, 2000.0, 1000.0, 500.0, 250.0)
MTTR = 100.0
ALPHA = 0.2  # FirstReward risk/reward blend (tuned for the load below)
DISCOUNT_RATE = 0.01
SLACK_THRESHOLD = 180.0
SLACK_INFLATION = 0.25  # extra required slack per unit believed RPT
LOAD_FACTOR = 2.0
VALUE_SKEW = 3.0
DECAY_SKEW = 5.0

#: Per-policy fault-stat columns carried into the result rows.
_STAT_KEYS = ("crashes", "tasks_killed", "restarts", "work_lost", "downtime")


def _one_run(
    spec,
    heuristic: Descriptor,
    admission: Optional[Descriptor],
    faults: FaultSpec,
    seed: int,
) -> dict:
    """One (policy, mttf, seed) cell — picklable for worker fan-out."""
    trace = generate_trace(spec, seed=seed)
    result = simulate_site(
        trace,
        build_heuristic(heuristic),
        processors=spec.processors,
        admission=build_admission(admission),
        keep_records=False,
        faults=faults,
        fault_seed=seed,
    )
    row = {
        "total_yield": result.total_yield,
        "yield_rate": result.yield_rate,
    }
    stats = result.fault_stats.summary() if result.fault_stats else {}
    for key in _STAT_KEYS:
        row[key] = float(stats.get(key, 0.0))
    return row


def run_faults(
    n_jobs: int = 600,
    seeds: Sequence[int] = (0, 1),
    workers: Optional[int] = None,
) -> FigureResult:
    """Sweep MTTF; one row per (policy, mttf) averaged over *seeds*."""
    result = FigureResult(
        figure="faults",
        title="Total yield vs node MTTF: risk-aware vs risk-oblivious pricing",
        notes=[
            f"economy mix: value skew {VALUE_SKEW}, decay skew {DECAY_SKEW}, "
            f"unbounded penalties, load factor {LOAD_FACTOR:g}, "
            f"n={n_jobs}, seeds={list(seeds)}",
            f"faults: mttr={MTTR:g}, restart=requeue, exponential TTF/TTR, "
            f"common random numbers across the MTTF axis",
            f"firstreward-ac: alpha={ALPHA:g}, slack threshold "
            f"{SLACK_THRESHOLD:g}, survival discount on, slack inflation "
            f"{SLACK_INFLATION:g}/unit RPT; firstprice-noac: no admission, "
            f"no failure awareness",
        ],
    )
    spec = economy_spec(
        n_jobs=n_jobs,
        value_skew=VALUE_SKEW,
        decay_skew=DECAY_SKEW,
        load_factor=LOAD_FACTOR,
        processors=16,
        penalty_bound=None,
    )
    firstreward = ("firstreward", {"alpha": ALPHA, "discount_rate": DISCOUNT_RATE})
    slack = (
        "slack",
        {
            "threshold": SLACK_THRESHOLD,
            "discount_rate": DISCOUNT_RATE,
            "slack_inflation": SLACK_INFLATION,
        },
    )
    cells = {}
    for mttf in MTTFS:
        faults = FaultSpec(mttf=mttf, mttr=MTTR, restart="requeue")
        for policy, heuristic, admission in (
            (
                "firstreward-ac",
                ("survival", {"inner": firstreward, "mttf": mttf}),
                slack,
            ),
            ("firstprice-noac", ("firstprice", {}), None),
        ):
            cells[mttf, policy] = partial(_one_run, spec, heuristic, admission, faults)

    def rows(v: dict) -> list[dict]:
        return [{"policy": policy, "mttf": mttf, **v[mttf, policy]} for mttf, policy in v]

    result.rows, result.seed_rows = sweep(cells, rows, seeds, workers)
    return result
