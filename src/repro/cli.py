"""Command-line interface: regenerate any paper figure as a table.

Usage::

    repro list
    repro fig5                     # quick scale
    repro fig5 --full              # paper scale (5000 jobs, multi-seed)
    repro fig3 --n-jobs 2000 --seeds 0 1
    repro all --check              # every figure + shape-check report
    repro trace --n-jobs 20        # inspect a generated workload

(Installed as ``repro``; also runnable as ``python -m repro``.)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro import __version__
from repro.errors import ReproError
from repro.experiments.runner import EXPERIMENTS, run_experiment, shape_report

#: Flags shared by several subcommands, defined once so every parser
#: shows identical help text.  ``add_shared_flag(parser, name)`` installs
#: one; the table is the single source of truth for names/metavars/help.
SHARED_FLAGS: dict[str, dict] = {
    "--workers": dict(
        type=int,
        default=None,
        metavar="N",
        help="fan independent simulation cells out over N worker processes "
        "(default: $REPRO_WORKERS or 1 = serial; results are byte-identical "
        "at any count; incompatible with --trace-out/--metrics-out)",
    ),
    "--trace-out": dict(
        default=None,
        metavar="PATH",
        help="write task-lifecycle spans as Chrome trace_event JSON "
        "(loadable in ui.perfetto.dev / chrome://tracing)",
    ),
    "--metrics-out": dict(
        default=None,
        metavar="PATH",
        help="write the metrics registry snapshot and per-run rows as JSON",
    ),
}


def add_shared_flag(parser, name: str) -> None:
    """Install one :data:`SHARED_FLAGS` entry on *parser*."""
    parser.add_argument(name, **SHARED_FLAGS[name])


#: (x, y, line, log_x) axes for `--plot`, matching the paper's figures.
PLOT_SPECS = {
    "fig3": ("discount_pct", "improvement_pct", "value_skew", True),
    "fig4": ("alpha", "improvement_pct", "decay_skew", False),
    "fig5": ("alpha", "improvement_pct", "decay_skew", False),
    "fig6": ("load_factor", "yield_rate", "policy", False),
    "fig7": ("threshold", "improvement_pct", "load_factor", False),
    "faults": ("mttf", "total_yield", "policy", True),
    "resilience": ("mttf", "value_recovered", "policy", True),
}

#: Experiments whose `--out` JSON has a conventional default path.
DEFAULT_OUT = {
    "faults": "results/faults.json",
    "resilience": "results/resilience.json",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Balancing Risk and Reward in a Market-Based Task "
            "Service' (HPDC 2004): regenerate each evaluation figure."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    # `repro lint` is dispatched before this parser runs (see main());
    # the stub keeps the subcommand visible in --help.
    sub.add_parser(
        "lint",
        help="static determinism & invariant analysis over the source tree "
        "(repro lint [paths] [--format text|json] [--select RULES])",
        add_help=False,
    )

    for name in [*EXPERIMENTS, "all"]:
        desc = (
            "run every figure"
            if name == "all"
            else EXPERIMENTS[name].description
        )
        p = sub.add_parser(name, help=desc)
        p.add_argument("--full", action="store_true", help="paper scale (slow)")
        p.add_argument("--n-jobs", type=int, default=None, help="override job count")
        p.add_argument(
            "--seeds", type=int, nargs="+", default=None, help="override seed list"
        )
        p.add_argument(
            "--check", action="store_true", help="print the expected-shape report"
        )
        p.add_argument(
            "--reps",
            type=int,
            default=None,
            help="run N disjoint-seed replications and report mean ± 95%% CI "
            "(mutually exclusive with --seeds/--check)",
        )
        p.add_argument(
            "--plot", action="store_true", help="render the figure as an ASCII plot"
        )
        add_shared_flag(p, "--workers")
        p.add_argument(
            "--out",
            default=DEFAULT_OUT.get(name),
            metavar="PATH",
            help="also write the result rows as JSON"
            + (" (default: %(default)s)" if name in DEFAULT_OUT else ""),
        )
        add_shared_flag(p, "--trace-out")
        add_shared_flag(p, "--metrics-out")

    t = sub.add_parser("trace", help="generate and print a sample workload trace")
    t.add_argument("--n-jobs", type=int, default=20)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument(
        "--mix", choices=["economy", "millennium"], default="economy"
    )

    c = sub.add_parser(
        "consolidation",
        help="extension: private clusters vs consolidated utility vs market",
    )
    c.add_argument("--n-jobs", type=int, default=1000)
    c.add_argument("--seeds", type=int, nargs="+", default=[0])
    add_shared_flag(c, "--workers")

    s = sub.add_parser(
        "sensitivity", help="extension: workload-parameter sensitivity grids"
    )
    s.add_argument(
        "--grid", choices=["skews", "load-horizon"], default="skews"
    )
    s.add_argument("--n-jobs", type=int, default=1000)
    s.add_argument("--seeds", type=int, nargs="+", default=[0])
    add_shared_flag(s, "--workers")

    sv = sub.add_parser(
        "serve",
        help="run the market as a live HTTP service: real subprocess "
        "execution on the wall clock, graceful SIGTERM drain "
        "(see docs/live.md)",
    )
    from repro.live.serve import add_serve_arguments

    add_serve_arguments(sv)
    add_shared_flag(sv, "--trace-out")
    add_shared_flag(sv, "--metrics-out")

    au = sub.add_parser(
        "audit",
        help="check a flight recording's economic ledger: value created "
        "once, settled once, refunds bounded, revenue reconciled "
        "(exit 0 clean / 1 violations / 2 unreadable)",
    )
    from repro.audit import add_audit_arguments

    add_audit_arguments(au)

    rp = sub.add_parser(
        "replay",
        help="reconstruct a recording's workload and re-run it through the "
        "simulator under alternative policies; prints an A/B table and "
        "divergence report",
    )
    from repro.replay import add_replay_arguments

    add_replay_arguments(rp)
    return parser


def _make_obs(args):
    """Build the observability attachment the output flags ask for."""
    if not (args.trace_out or args.metrics_out):
        return None
    from repro.obs import Observability

    return Observability(spans=args.trace_out is not None)


def _write_obs(obs, args) -> None:
    from repro.obs import write_artifacts

    for line in write_artifacts(obs, args.trace_out, args.metrics_out):
        print(f"  {line}")


def _run_one(name: str, args) -> int:
    scale = "full" if args.full else "quick"
    overrides = {}
    if args.n_jobs is not None:
        overrides["n_jobs"] = args.n_jobs
    obs = _make_obs(args)
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.reps is not None:
        from repro.experiments.replication import run_replicated

        if args.seeds is not None or args.check:
            raise SystemExit("--reps cannot be combined with --seeds or --check")
        start = time.time()
        if obs is not None:
            from repro.obs import observing

            with observing(obs):
                replicated = run_replicated(
                    name, replications=args.reps, scale=scale, **overrides
                )
        else:
            replicated = run_replicated(
                name, replications=args.reps, scale=scale, **overrides
            )
        print(replicated.table())
        print(f"  ({scale} scale, {args.reps} replications, {time.time() - start:.1f}s)")
        if obs is not None:
            _write_obs(obs, args)
        print()
        return 0
    if args.seeds is not None:
        overrides["seeds"] = tuple(args.seeds)
    start = time.time()
    result = run_experiment(name, scale=scale, obs=obs, **overrides)
    elapsed = time.time() - start
    if args.plot:
        from repro.analysis import render_curves

        x, y, line, log_x = PLOT_SPECS[name]
        print(
            render_curves(
                result.series(x, y, line),
                title=f"{result.figure}: {result.title} [{y} vs {x}]",
                log_x=log_x,
            )
        )
    else:
        print(result.table())
    print(f"  ({scale} scale, {elapsed:.1f}s)")
    if args.out:
        _write_json(result, args.out, obs=obs)
        print(f"  wrote {args.out}")
    if obs is not None:
        _write_obs(obs, args)
    failures = 0
    if args.check:
        print("shape checks:")
        for check in shape_report(result):
            print(f"  {check}")
            if not check.passed and check.robust:
                failures += 1
    print()
    return failures


def _write_json(result, path: str, obs=None) -> None:
    import json
    import os

    payload = {
        "figure": result.figure,
        "title": result.title,
        "rows": result.rows,
        "notes": result.notes,
    }
    if obs is not None:
        payload["observability"] = obs.snapshot()
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def _print_trace(args) -> None:
    from repro.metrics.tables import format_table
    from repro.workload import economy_spec, generate_trace, millennium_spec

    spec = (
        economy_spec(n_jobs=args.n_jobs)
        if args.mix == "economy"
        else millennium_spec(n_jobs=args.n_jobs)
    )
    trace = generate_trace(spec, seed=args.seed)
    rows = [
        dict(zip(("arrival", "runtime", "value", "decay", "bound", "estimate"), row))
        for row in trace.iter_rows()
    ]
    print(spec.describe())
    print(format_table(rows))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # delegated early: lint owns its full flag set (incl. --format /
        # --select) and the 0/1/2 exit-code contract
        from repro.analysis.static.report import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # a bad flag value the library refused: a usage error, like
        # argparse's own (exit 2), not a traceback
        print(f"repro: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list":
        for name, definition in EXPERIMENTS.items():
            print(f"{name}: {definition.description}")
        return 0
    if args.command == "trace":
        _print_trace(args)
        return 0
    if args.command == "serve":
        from repro.live.serve import run_serve

        return run_serve(args)
    if args.command == "audit":
        from repro.audit import run_audit

        return run_audit(args)
    if args.command == "replay":
        from repro.replay import run_replay

        return run_replay(args)
    if args.command == "consolidation":
        from repro.experiments.consolidation import run_consolidation

        result = run_consolidation(
            n_jobs=args.n_jobs, seeds=tuple(args.seeds), workers=args.workers
        )
        print(result.table())
        return 0
    if args.command == "sensitivity":
        from repro.experiments.sensitivity import run_load_horizon_grid, run_skew_grid

        run = run_skew_grid if args.grid == "skews" else run_load_horizon_grid
        result = run(
            n_jobs=args.n_jobs, seeds=tuple(args.seeds), workers=args.workers
        )
        print(result.table())
        return 0
    names = list(EXPERIMENTS) if args.command == "all" else [args.command]
    failures = 0
    for name in names:
        failures += _run_one(name, args)
    if failures:
        print(f"{failures} robust shape check(s) FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
