"""``python -m bench run|compare`` (``PYTHONPATH=src`` is optional: the
package finds the checkout's ``src/`` by itself).

``run --workload W`` measures one workload in this interpreter and ends
with the referee's one-line JSON result; without ``--workload`` every
workload runs in a fresh interpreter of its own.
"""

from __future__ import annotations

import argparse
import os
import sys

from bench.spec import FULL, SMOKE, WORKLOADS

DEFAULT_SECONDS = 24.0
SMOKE_SECONDS = 2.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads and print every metric")
    run.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help=f"measuring time per workload (default {DEFAULT_SECONDS:g})")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: the traced run (per-layer metrics and the layer budget)")
    run.add_argument("--traced", action="store_const", const=1, dest="trace",
                     help="same as --trace 1")
    run.add_argument("--smoke", action="store_true",
                     help="tiny sizing for wiring checks; numbers are not comparable")
    run.add_argument("--bless", action="store_true",
                     help="rewrite bench/golden.json from this run's digests "
                          "(after an intended change of outputs)")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="append each run's full record to FILE (input of `compare`)")

    probe = commands.add_parser("probe", help=argparse.SUPPRESS)
    probe.add_argument("--workload", required=True)
    probe.add_argument("--seed", type=int, required=True)
    probe.add_argument("--smoke", action="store_true")

    compare = commands.add_parser("compare", help="compare two files of run records")
    compare.add_argument("base")
    compare.add_argument("change")
    compare.add_argument("--record-baseline", default=None, metavar="FILE",
                         help="for an A/A comparison: write medians and observed "
                              "spreads to FILE (bench/baseline.json)")
    return parser


def _run(args: argparse.Namespace) -> int:
    from bench import ROOT, runner

    sizes = SMOKE if args.smoke else FULL
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    )
    if args.workload is not None:
        record = runner.run_workload(
            args.workload, args.seed, seconds, sizes, bool(args.trace), args.bless
        )
        if args.out:
            runner.append_record(args.out, record)
        print(runner.format_record(record))
        print(runner.driver_line(record))
        return 0

    out = args.out or os.path.join(ROOT, ".bench_run", f"run-{os.getpid()}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    # the smoke pass exercises the traced path too; a comparable pass is
    # either untraced (end-to-end numbers) or traced (layer numbers)
    passes = (False, True) if args.smoke else (bool(args.trace),)
    ok = True
    for traced in passes:
        for name in WORKLOADS:
            record = runner.run_in_fresh_interpreter(
                name, args.seed, seconds, sizes, traced, out, args.bless
            )
            if record is None:
                print(f"== {name}: the run did not finish")
                ok = False
                continue
            print(runner.format_record(record))
            ok = ok and record["correct"]
    if not args.out:
        os.remove(out)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "probe":
        from bench import runner

        runner.probe_main(args.workload, args.seed, SMOKE if args.smoke else FULL)
        return 0
    from bench.compare import main as compare_main

    return compare_main(args.base, args.change, args.record_baseline)


if __name__ == "__main__":
    sys.exit(main())
