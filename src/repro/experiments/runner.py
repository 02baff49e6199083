"""Experiment registry and expected-shape checks.

The registry is the one definition of an experiment: its run function,
two canned scales — ``quick`` (minutes of CPU, used by tests and default
CLI runs) and ``full`` (paper scale: 5000 jobs, multiple seeds) — the
axes its figure is read on, and its shape checks.  The CLI's subcommands,
``--plot``, the replication harness and ``scripts/run_full_experiments.py``
all read it.

The shape checks encode DESIGN.md §3's acceptance criteria — the
qualitative structure each figure must exhibit (who wins, where peaks
fall) independent of absolute magnitudes.  Benchmarks assert the robust
subset; the CLI reports all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.instrument import Observability
from repro.experiments.common import FigureResult
from repro.experiments.consolidation import run_consolidation
from repro.experiments.faults import run_faults
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.resilience import run_resilience
from repro.experiments.sensitivity import run_load_horizon_grid, run_skew_grid


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative acceptance criterion and its verdict."""

    name: str
    passed: bool
    detail: str
    robust: bool = True  # robust checks must hold even at quick scale

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tag = "" if self.robust else " (soft)"
        return f"[{mark}]{tag} {self.name}: {self.detail}"


# ----------------------------------------------------------------------
# Per-figure shape checks
# ----------------------------------------------------------------------

def _line_max(points: list[tuple]) -> tuple:
    return max(points, key=lambda p: p[1])


def check_fig3(res: FigureResult) -> list[ShapeCheck]:
    series = res.series("discount_pct", "improvement_pct", "value_skew")
    checks = []
    smallest_pct = min(x for pts in series.values() for x, _ in pts)
    at_zero = [abs(y) for pts in series.values() for x, y in pts if x == smallest_pct]
    checks.append(
        ShapeCheck(
            "pv-equals-firstprice-as-rate-vanishes",
            max(at_zero) < 1.5,
            f"|improvement| at {smallest_pct}%: max {max(at_zero):.2f}%",
        )
    )
    best = max(y for pts in series.values() for _, y in pts)
    checks.append(
        ShapeCheck(
            "pv-gains-at-moderate-rates",
            best > 0.5,
            f"best improvement anywhere: {best:+.2f}%",
        )
    )
    skews = sorted(series)
    lo_line, hi_line = series[skews[0]], series[skews[-1]]
    lo_best, hi_best = _line_max(lo_line)[1], _line_max(hi_line)[1]
    checks.append(
        ShapeCheck(
            "gains-grow-with-value-skew",
            hi_best > lo_best,
            f"peak at skew {skews[-1]}: {hi_best:+.2f}% vs skew {skews[0]}: {lo_best:+.2f}%",
            robust=False,
        )
    )
    lo_tail = lo_line[-1][1]
    checks.append(
        ShapeCheck(
            "extreme-discount-hurts-low-skew",
            lo_tail < lo_best,
            f"skew {skews[0]}: tail {lo_tail:+.2f}% < peak {lo_best:+.2f}%",
            robust=False,
        )
    )
    return checks


def check_fig4(res: FigureResult) -> list[ShapeCheck]:
    series = res.series("alpha", "improvement_pct", "decay_skew")
    checks = []
    interior_beats_extremes = []
    for _dskew, pts in series.items():
        xs = [x for x, _ in pts]
        best_alpha, best = _line_max(pts)
        end_vals = [y for x, y in pts if x in (min(xs), max(xs))]
        interior_beats_extremes.append(best >= max(end_vals) - 1e-9)
    checks.append(
        ShapeCheck(
            "hybrid-works-best",
            all(interior_beats_extremes),
            "peak improvement per decay skew is >= both alpha extremes",
        )
    )
    magnitudes = [abs(y) for pts in series.values() for _, y in pts]
    checks.append(
        ShapeCheck(
            "bounded-improvements-modest",
            max(magnitudes) < 20.0,
            f"max |improvement| {max(magnitudes):.1f}% (paper: single digits)",
        )
    )
    return checks


def check_fig5(res: FigureResult) -> list[ShapeCheck]:
    series = res.series("alpha", "improvement_pct", "decay_skew")
    checks = []
    cost_best = all(
        pts[0][1] >= pts[-1][1] - 1.0 for pts in series.values()
    )
    checks.append(
        ShapeCheck(
            "never-useful-to-consider-gains",
            cost_best,
            "improvement at alpha=0 >= improvement at max alpha for every decay skew",
        )
    )
    trend_down = all(
        pts[0][1] >= pts[len(pts) // 2][1] - 1.0 >= pts[-1][1] - 2.0
        for pts in series.values()
    )
    checks.append(
        ShapeCheck(
            "improvement-decreases-with-alpha",
            trend_down,
            "alpha=0 >= mid-alpha >= max-alpha (with tolerance) per decay skew",
            robust=False,
        )
    )
    skews = sorted(series)
    grows = series[skews[-1]][0][1] > series[skews[0]][0][1]
    checks.append(
        ShapeCheck(
            "improvement-grows-with-decay-skew",
            grows,
            f"alpha=0: {series[skews[-1]][0][1]:+.1f}% at skew {skews[-1]} vs "
            f"{series[skews[0]][0][1]:+.1f}% at skew {skews[0]}",
        )
    )
    checks.append(
        ShapeCheck(
            "magnitude-order-larger-than-bounded-case",
            series[skews[-1]][0][1] > 5.0,
            f"alpha=0 improvement at top decay skew: {series[skews[-1]][0][1]:+.1f}%",
        )
    )
    return checks


def check_fig6(res: FigureResult) -> list[ShapeCheck]:
    series = res.series("load_factor", "yield_rate", "policy")
    checks = []
    ac0 = series["alpha=0"]
    noac = series["firstprice-noac"]
    checks.append(
        ShapeCheck(
            "admission-control-yield-rises-with-load",
            ac0[-1][1] > ac0[0][1] > 0,
            f"alpha=0: rate {ac0[0][1]:.1f} at load {ac0[0][0]} -> "
            f"{ac0[-1][1]:.1f} at load {ac0[-1][0]}",
        )
    )
    checks.append(
        ShapeCheck(
            "no-admission-control-collapses",
            noac[-1][1] < 0 and noac[-1][1] < noac[0][1],
            f"no-AC rate: {noac[0][1]:.1f} -> {noac[-1][1]:.1f}",
        )
    )
    checks.append(
        ShapeCheck(
            "admission-control-critical-under-heavy-load",
            ac0[-1][1] > noac[-1][1],
            f"at max load: AC {ac0[-1][1]:.1f} vs no-AC {noac[-1][1]:.1f}",
        )
    )
    if "alpha=1" in series:
        hi_alpha = series["alpha=1"]
        checks.append(
            ShapeCheck(
                "cost-ordering-matters-at-high-load",
                ac0[-1][1] >= hi_alpha[-1][1] - 1.0,
                f"at max load: alpha=0 {ac0[-1][1]:.1f} vs alpha=1 {hi_alpha[-1][1]:.1f}",
                robust=False,
            )
        )
    return checks


def check_fig7(res: FigureResult) -> list[ShapeCheck]:
    series = res.series("threshold", "improvement_pct", "load_factor")
    checks = []
    loads = sorted(series)
    peak_of = {load: _line_max(pts) for load, pts in series.items()}
    hi, lo = loads[-1], loads[0]
    checks.append(
        ShapeCheck(
            "ideal-threshold-grows-with-load",
            peak_of[hi][0] >= peak_of[lo][0],
            f"peak threshold {peak_of[hi][0]:g} at load {hi} vs "
            f"{peak_of[lo][0]:g} at load {lo}",
        )
    )
    checks.append(
        ShapeCheck(
            "threshold-matters-more-at-high-load",
            peak_of[hi][1] > peak_of[lo][1],
            f"peak improvement {peak_of[hi][1]:+.1f}% at load {hi} vs "
            f"{peak_of[lo][1]:+.1f}% at load {lo}",
        )
    )
    overloaded = [load for load in loads if load > 1.0]
    peaked = all(
        peak_of[load][1] > series[load][-1][1] for load in overloaded
    )
    checks.append(
        ShapeCheck(
            "high-threshold-overshoots",
            peaked,
            "for overloaded mixes the peak beats the rightmost (most "
            "conservative) threshold",
            robust=False,
        )
    )
    return checks


def check_faults(res: FigureResult) -> list[ShapeCheck]:
    series = res.series("mttf", "total_yield", "policy")
    checks = []
    for policy, pts in series.items():
        ys = [y for _, y in pts]  # ascending mttf
        monotone = all(ys[i] <= ys[i + 1] + 1e-9 for i in range(len(ys) - 1))
        lo, hi = pts[0], pts[-1]
        checks.append(
            ShapeCheck(
                f"yield-degrades-as-mttf-shrinks[{policy}]",
                monotone,
                f"{policy}: yield {hi[1]:.0f} at mttf {hi[0]:g} -> "
                f"{lo[1]:.0f} at mttf {lo[0]:g}, monotone along the sweep",
            )
        )
    aware = dict(series["firstreward-ac"])
    oblivious = dict(series["firstprice-noac"])
    dominated = all(aware[m] >= oblivious[m] for m in aware)
    worst_gap = min(aware[m] - oblivious[m] for m in aware)
    checks.append(
        ShapeCheck(
            "risk-aware-dominates-at-every-mttf",
            dominated,
            f"firstreward-ac >= firstprice-noac at all MTTFs "
            f"(smallest margin {worst_gap:+.0f})",
        )
    )
    return checks


def check_resilience(res: FigureResult) -> list[ShapeCheck]:
    series = res.series("mttf", "value_recovered", "policy")
    checks = []
    budgeted = [p for p in series if p.startswith("budget=")]
    recovered = [y for p in budgeted for _, y in series[p]]
    checks.append(
        ShapeCheck(
            "failover-recovers-value",
            bool(recovered) and max(recovered) > 0 and min(recovered) >= 0,
            f"recovered value across budgeted policies: "
            f"max {max(recovered, default=0.0):.0f}, "
            f"min {min(recovered, default=0.0):.0f}",
        )
    )
    doubles = max(res.column("double_completions"))
    checks.append(
        ShapeCheck(
            "no-task-completes-twice",
            doubles == 0,
            f"max lineages completed on two sites across the grid: {doubles:g}",
        )
    )
    disabled = dict(res.series("mttf", "value_recovered", "policy")["disabled"])
    checks.append(
        ShapeCheck(
            "disabled-recovers-nothing",
            all(v == 0.0 for v in disabled.values()),
            "the plain market claws back no breached value",
        )
    )
    if budgeted:
        by_budget = sorted(budgeted, key=lambda p: int(p.split("=")[1]))
        lo = sum(y for _, y in series[by_budget[0]])
        hi = sum(y for _, y in series[by_budget[-1]])
        checks.append(
            ShapeCheck(
                "recovery-grows-with-budget",
                hi >= lo - 1e-9,
                f"total recovered: {hi:.0f} at {by_budget[-1]} vs "
                f"{lo:.0f} at {by_budget[0]}",
                robust=False,
            )
        )
        revenue = res.series("mttf", "total_revenue", "policy")
        margins = [
            (mttf, max(dict(revenue[p])[mttf] for p in budgeted) - base)
            for mttf, base in revenue["disabled"]
        ]
        checks.append(
            ShapeCheck(
                "failover-never-earns-less",
                all(margin >= 0 for _, margin in margins),
                "best budgeted policy minus the plain market's revenue: "
                + "; ".join(f"mttf {mttf:g}: {margin:+.0f}" for mttf, margin in margins),
            )
        )
    return checks


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def no_checks(res: FigureResult) -> list[ShapeCheck]:
    """The shape checks of an experiment that registers none."""
    return []


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    description: str
    run: Callable[..., FigureResult]
    quick: dict
    full: dict
    #: ``(x, y, line, log_x)``: ``--plot`` draws column *y* against *x*,
    #: one curve per value of *line*; ``(line, x)`` are the coordinates
    #: the replication harness keys its rows by
    axes: tuple[str, str, str, bool]
    check: Callable[[FigureResult], list[ShapeCheck]] = no_checks


EXPERIMENTS: dict[str, ExperimentDef] = {
    "fig3": ExperimentDef(
        name="fig3",
        description="PV vs FirstPrice across discount rates and value skews",
        run=run_fig3,
        axes=("discount_pct", "improvement_pct", "value_skew", True),
        check=check_fig3,
        quick=dict(
            n_jobs=1500,
            seeds=(0,),
            value_skews=(1.0, 2.15, 9.0),
            discount_percents=(0.001, 0.1, 1.0, 10.0),
        ),
        full=dict(n_jobs=5000, seeds=(0, 1)),
    ),
    "fig4": ExperimentDef(
        name="fig4",
        description="FirstReward alpha sweep, bounded penalties",
        run=run_fig4,
        axes=("alpha", "improvement_pct", "decay_skew", False),
        check=check_fig4,
        quick=dict(
            n_jobs=2000,
            seeds=(0, 1),
            alphas=(0.0, 0.3, 0.6, 0.9),
            decay_skews=(3.0, 7.0),
        ),
        full=dict(n_jobs=5000, seeds=(0, 1, 2)),
    ),
    "fig5": ExperimentDef(
        name="fig5",
        description="FirstReward alpha sweep, unbounded penalties",
        run=run_fig5,
        axes=("alpha", "improvement_pct", "decay_skew", False),
        check=check_fig5,
        quick=dict(
            n_jobs=2000,
            seeds=(0, 1),
            alphas=(0.0, 0.3, 0.6, 0.9),
            decay_skews=(3.0, 7.0),
        ),
        full=dict(n_jobs=5000, seeds=(0, 1, 2)),
    ),
    "fig6": ExperimentDef(
        name="fig6",
        description="yield rate vs load factor with slack admission control",
        run=run_fig6,
        axes=("load_factor", "yield_rate", "policy", False),
        check=check_fig6,
        quick=dict(
            n_jobs=1500,
            seeds=(0,),
            load_factors=(0.5, 1.5, 3.0, 4.5),
            alphas=(0.0, 0.4, 1.0),
        ),
        full=dict(n_jobs=5000, seeds=(0, 1)),
    ),
    "fig7": ExperimentDef(
        name="fig7",
        description="improvement over no admission control vs slack threshold",
        run=run_fig7,
        axes=("threshold", "improvement_pct", "load_factor", False),
        check=check_fig7,
        quick=dict(
            n_jobs=1500,
            seeds=(0,),
            load_factors=(0.5, 1.33, 2.0),
            thresholds=(-200.0, 0.0, 200.0, 400.0, 700.0),
        ),
        full=dict(n_jobs=5000, seeds=(0, 1)),
    ),
    "faults": ExperimentDef(
        name="faults",
        description="extension: yield vs node MTTF under fault injection",
        run=run_faults,
        axes=("mttf", "total_yield", "policy", True),
        check=check_faults,
        quick=dict(n_jobs=600, seeds=(0, 1)),
        full=dict(n_jobs=5000, seeds=(0, 1, 2)),
    ),
    "resilience": ExperimentDef(
        name="resilience",
        description=(
            "extension: chaos sweep — value recovered vs MTTF under "
            "failover re-bidding"
        ),
        run=run_resilience,
        axes=("mttf", "value_recovered", "policy", True),
        check=check_resilience,
        quick=dict(
            n_jobs=300,
            seeds=(0, 1),
            mttfs=(1000.0, 500.0, 250.0),
        ),
        full=dict(n_jobs=2000, seeds=(0, 1, 2)),
    ),
    "consolidation": ExperimentDef(
        name="consolidation",
        description="extension: private clusters vs consolidated utility vs market",
        run=run_consolidation,
        axes=("load_factor", "total_yield", "organization", False),
        quick=dict(n_jobs=1000, seeds=(0,)),
        full=dict(n_jobs=5000, seeds=(0, 1)),
    ),
    "sensitivity-skews": ExperimentDef(
        name="sensitivity-skews",
        description="extension: FirstReward improvement over value skew x decay skew",
        run=run_skew_grid,
        axes=("decay_skew", "improvement_pct", "value_skew", False),
        quick=dict(n_jobs=1000, seeds=(0,)),
        full=dict(n_jobs=5000, seeds=(0, 1)),
    ),
    "sensitivity-load-horizon": ExperimentDef(
        name="sensitivity-load-horizon",
        description="extension: FirstReward improvement over load x decay horizon",
        run=run_load_horizon_grid,
        axes=("decay_horizon", "improvement_pct", "load_factor", True),
        quick=dict(n_jobs=1000, seeds=(0,)),
        full=dict(n_jobs=5000, seeds=(0, 1)),
    ),
}


def run_experiment(
    name: str,
    scale: str = "quick",
    obs: "Optional[Observability]" = None,
    workers: Optional[int] = None,
    **overrides,
) -> FigureResult:
    """Run a registered experiment at ``quick`` or ``full`` scale.

    With *obs* given, the whole sweep runs under that observability
    attachment: every ``simulate_site`` replication brackets itself as
    one observed run (spans, metrics), and the observer's
    per-run summary rows plus span/drop bookkeeping are folded into the
    result's notes so exported JSON carries its own telemetry summary.

    *workers* fans the experiment's independent (config, seed) cells out
    over that many processes (``None`` → ``$REPRO_WORKERS`` → serial);
    the result is byte-identical at any worker count.  Combining
    ``workers > 1`` with *obs* raises: spans recorded inside worker
    processes would never reach the parent's exporters.
    """
    try:
        definition = EXPERIMENTS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; options: {sorted(EXPERIMENTS)}"
        ) from None
    if scale not in ("quick", "full"):
        raise ExperimentError(f"scale must be 'quick' or 'full', got {scale!r}")
    kwargs = dict(definition.quick if scale == "quick" else definition.full)
    kwargs.update(overrides)
    if workers is not None:
        kwargs["workers"] = workers
    if obs is None:
        return definition.run(**kwargs)

    from repro.obs.instrument import observing

    with observing(obs):
        result = definition.run(**kwargs)
    spans = obs.spans
    note = f"observability: {obs.run_index + 1} instrumented runs"
    if spans is not None:
        note += f", {len(spans)} spans retained"
        if spans.dropped:
            note += f" ({spans.dropped} dropped)"
    result.notes.append(note)
    return result


def shape_report(result: FigureResult) -> list[ShapeCheck]:
    """Run the registered shape checks for a figure result."""
    definition = EXPERIMENTS.get(result.figure)
    if definition is None:
        raise ExperimentError(f"no shape checks registered for {result.figure!r}")
    return definition.check(result)
