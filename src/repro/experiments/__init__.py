"""Experiment harness: one module per paper figure (Figs 3–7).

Each ``figN`` module exposes ``run_figN(...) -> FigureResult`` with
keyword knobs for scale (job count, seeds) so the same code serves quick
CI checks and full paper-scale regeneration.  ``repro.experiments.runner``
holds the registry the CLI and the test suite share, plus the
expected-shape checks recorded in DESIGN.md §3.
"""

from repro.experiments.common import FigureResult
from repro.experiments.consolidation import run_consolidation
from repro.experiments.replication import ReplicatedResult, run_replicated
from repro.experiments.runner import EXPERIMENTS, run_experiment, shape_report
from repro.experiments.sensitivity import run_load_horizon_grid, run_skew_grid

__all__ = [
    "EXPERIMENTS",
    "FigureResult",
    "ReplicatedResult",
    "run_consolidation",
    "run_experiment",
    "run_load_horizon_grid",
    "run_replicated",
    "run_skew_grid",
    "shape_report",
]
