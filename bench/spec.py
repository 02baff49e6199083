"""What the benchmark measures: workloads, sizes, and every metric by name.

``BENCHMARK.json`` and ``bench/README.md`` are checked against this
module by the self-tests, so a metric cannot be printed under a name
that is not declared here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

#: Metric and workload names: what ``BENCHMARK.json`` accepts.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS: dict[str, str] = {
    "fig6_admission": (
        "Fig. 6 grid under SlackAdmission(180): pools stay shallow, so "
        "per-call admission overhead dominates; phase2 is the same cells "
        "through CellExecutor(2)"
    ),
    "backlog_dispatch": (
        "load 3.0 with admission bypassed: pools run thousands deep, so "
        "vectorised scores() and PendingPool dominate; phase2 is a "
        "preemption cell (score, evict, requeue)"
    ),
    "market_recorded": (
        "Fig. 1 market, 4 sites, recorder on a file journal, paired with "
        "the same market unrecorded; phase2 is read+audit+replay of that "
        "journal"
    ),
    "live_bids": (
        "repro serve as its own process under open-loop 40/s and 400/s "
        "Poisson bids and a closed loop over 2 connections; the only "
        "workload where live.*, WAL fsync and fork matter"
    ),
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes for one sizing of the benchmark."""

    label: str
    fig6_jobs: int
    backlog_jobs: int
    preempt_jobs: int
    market_bids: int
    min_rounds: int
    traced_rounds: int
    setup_probes: int
    live_cycles: int
    live_sat_bids: int
    live_traced_bids: int
    #: share of ``--seconds`` given to each open-loop phase of a cycle
    live_phase_share: float


#: The comparable sizing.  The paper's 5 000 jobs per cell do not fit
#: the referee's time cap (about 37 s a run, set-up included) with five
#: interleaved rounds, so cells are cut to the sizes below; the regimes
#: the workloads exist to separate are checked at these sizes by the
#: traced run (see README, "Regime split").
FULL = Sizes(
    label="full",
    fig6_jobs=1500,
    backlog_jobs=4000,
    preempt_jobs=2000,
    market_bids=1500,
    min_rounds=5,
    traced_rounds=2,
    setup_probes=5,
    live_cycles=5,
    live_sat_bids=600,
    live_traced_bids=500,
    live_phase_share=0.05,
)

#: Wiring check only; ``compare`` refuses files produced at this sizing.
SMOKE = Sizes(
    label="smoke",
    fig6_jobs=300,
    backlog_jobs=300,
    preempt_jobs=300,
    market_bids=300,
    min_rounds=1,
    traced_rounds=1,
    setup_probes=1,
    live_cycles=1,
    live_sat_bids=200,
    live_traced_bids=100,
    live_phase_share=1.0,  # 2 s phases at the smoke default of --seconds 2
)

#: A bid at ``hi`` counts only if it got a 200 within this of its due instant.
LATENCY_LIMIT_MS = 50.0
LIVE_RATE_LO = 40.0
LIVE_RATE_HI = 400.0
#: market time units per wall second of the live server
LIVE_CLOCK_RATE = 2000.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: regression bound as a share of the baseline median (``None``: no gate)
    bound: Optional[float] = None
    #: the bound is an absolute difference, not a share
    absolute: bool = False
    #: workloads that measure it (empty: all)
    workloads: tuple[str, ...] = ()

    def applies_to(self, workload: str) -> bool:
        return not self.workloads or workload in self.workloads


_SIM = ("fig6_admission", "backlog_dispatch", "market_recorded")
_LIVE = ("live_bids",)

#: The end-to-end table of the issue: what ``python -m bench run``
#: prints per workload and what ``python -m bench compare`` gates
#: (README, "End-to-end metrics", says what each one means).
E2E: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("tasks_per_s", "1/s", "higher", 0.05, workloads=_SIM),
    Metric("w2_tasks_per_s", "1/s", "higher", 0.10, workloads=("fig6_admission",)),
    Metric("preempt_tasks_per_s", "1/s", "higher", 0.05, workloads=("backlog_dispatch",)),
    Metric("postmortem_s", "s", "lower", 0.07, workloads=("market_recorded",)),
    Metric("bid_p50_ms_lo", "ms", "lower", 0.08, workloads=_LIVE),
    Metric("bid_p50_ms_hi", "ms", "lower", 0.08, workloads=_LIVE),
    Metric("bid_in_limit_share_hi", "share", "higher", 0.02, absolute=True, workloads=_LIVE),
    Metric("settle_overhead_p50_ms", "ms", "lower", 0.10, workloads=_LIVE),
    Metric("closed_bids_per_s", "1/s", "higher", 0.08, workloads=_LIVE),
)

#: What the referee's driver reads (``BENCHMARK.json``).  Its contract
#: wants every end-to-end metric from every workload, so the workload-
#: scoped rows above are carried under three names that every workload
#: can fill with a number of its own; README has the mapping.  The
#: bounds are the widest the driver takes: it judges single runs, and
#: across seeds the steadiest of these spread 0.04 and the live ones 0.10
#: to 0.16 on this host.
DRIVER_E2E: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("tasks_per_s", "1/s", "higher", 0.25),
    Metric("phase2_tasks_per_s", "1/s", "higher", 0.25),
    Metric("task_p50_ms", "ms", "lower", 0.25),
)


def _layers(*rows: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(name, unit, better) for name, unit, better in rows)


#: Per-layer metrics; a layer a workload does not enter reports 0.
PER_LAYER: tuple[Metric, ...] = _layers(
    ("workload.generate_s", "s", "lower"),
    ("workload.to_tasks_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.kernel_self_s", "s", "lower"),
    ("sim.kernel_us_per_event", "us", "lower"),
    ("site.submit_s", "s", "lower"),
    ("site.submit_calls", "count", "lower"),
    ("site.complete_s", "s", "lower"),
    ("site.self_s", "s", "lower"),
    ("site.preempt_scores_us", "us", "lower"),
    ("site.preempt_swaps", "count", "lower"),
    ("site.admission.evaluate_s", "s", "lower"),
    ("site.admission.evaluate_calls", "count", "lower"),
    ("site.admission.evaluate_us", "us", "lower"),
    ("site.admission.accept_share", "share", "higher"),
    ("site.admission.depth_max", "count", "lower"),
    ("scheduling.scores_s", "s", "lower"),
    ("scheduling.scores_calls", "count", "lower"),
    ("scheduling.scores_us", "us", "lower"),
    ("scheduling.pool_depth_mean", "count", "lower"),
    ("scheduling.pool_depth_max", "count", "lower"),
    ("scheduling.pool_s", "s", "lower"),
    ("scheduling.pool_ops", "count", "lower"),
    ("experiments.w2_startup_s", "s", "lower"),
    ("experiments.w2_efficiency", "share", "higher"),
    ("market.negotiate_s", "s", "lower"),
    ("market.negotiate_calls", "count", "lower"),
    ("market.quote_s", "s", "lower"),
    ("market.quote_calls", "count", "lower"),
    ("market.award_s", "s", "lower"),
    ("market.accept_share", "share", "higher"),
    ("obs.flight.record_s", "s", "lower"),
    ("obs.flight.records", "count", "lower"),
    ("obs.flight.us_per_record", "us", "lower"),
    ("obs.flight.bytes", "count", "lower"),
    ("obs.flight.overhead_ratio", "ratio", "lower"),
    ("obs.flight.read_s", "s", "lower"),
    ("audit.audit_s", "s", "lower"),
    ("audit.violations", "count", "lower"),
    ("replay.replay_s", "s", "lower"),
    ("live.httpd.transport_us", "us", "lower"),
    ("live.api.parse_us", "us", "lower"),
    ("live.service.handle_us", "us", "lower"),
    ("market.negotiate_us", "us", "lower"),
    ("live.site.quote_us", "us", "lower"),
    ("live.site.award_us", "us", "lower"),
    ("obs.flight.journal_us", "us", "lower"),
    ("live.api.render_us", "us", "lower"),
    ("live.bid_p50_ms_lo", "ms", "lower"),
    ("live.bid_p95_ms_lo", "ms", "lower"),
    ("live.bid_p50_ms_hi", "ms", "lower"),
    ("live.bid_p95_ms_hi", "ms", "lower"),
    ("live.bid_p99_ms_hi", "ms", "lower"),
    ("live.bid_in_limit_share_hi", "share", "higher"),
    ("live.gen_late_p99_ms", "ms", "lower"),
    ("live.accept_share_lo", "share", "higher"),
    ("live.accept_share_hi", "share", "higher"),
    ("live.settle_overhead_p50_ms", "ms", "lower"),
    ("live.queue_wait_p50_ms", "ms", "lower"),
    ("live.executor.run_overhead_p50_ms", "ms", "lower"),
    ("live.cpu_ms_per_bid", "ms", "lower"),
    ("live.journal_bytes", "count", "lower"),
    ("live.drain_s", "s", "lower"),
    ("budget.residual_share", "share", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("host.pace", "ratio", "lower"),
)


def e2e_for(workload: str) -> list[Metric]:
    return [m for m in E2E if m.applies_to(workload)]
