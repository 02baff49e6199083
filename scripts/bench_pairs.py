#!/usr/bin/env python
"""Alternating pairs of ``python -m bench run`` on two checkouts.

The protocol behind every performance claim in ``docs/performance.md``:
a parent checkout (``A_DIR``) and a change (``B_DIR``) each run one
workload of their *own* ``bench/``, N times, alternating which side goes
first, and the change is judged per pair.

* ``__pycache__`` is deleted from both trees first and no run may write
  one: a tree that a pytest run left compiled reads ~20 % faster on
  ``setup_s`` than a clean copy of the same commit.
* A run that reports ``correct: false`` or a failed operation stops the
  series with exit 1 — a wrong answer has no speed.
* Per metric: every run of both sides, each side's median and quartiles,
  the ratio of medians (B ÷ A) and in how many pairs B read better (ties
  count for neither).
* ``--traced``: after the pairs, one traced run per side.  The counts the
  program makes of its own work (:data:`EXACT_COUNTS`, and the number of
  spans of every layer) are printed side by side and must be equal — a
  change that makes the same work cheaper moves no count, and one that
  means to move a count says which beforehand — else exit 1.  The
  per-call layer times are printed beside them, not judged.

Usage::

    python scripts/bench_pairs.py A_DIR B_DIR --workload W --pairs N
        [--seed S] [--smoke] [--traced]

``--smoke`` passes the benchmark's smoke sizing through: numbers are not
comparable, the wiring is what runs (CI's ``perf-smoke`` does it A/A).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys


#: Per-layer metrics that count work instead of timing it: equal inputs
#: give equal values on any host, so the two sides are compared exactly.
EXACT_COUNTS = (
    "sim.events",
    "site.submit_calls",
    "site.preempt_swaps",
    "site.admission.evaluate_calls",
    "site.admission.accept_share",
    "scheduling.scores_calls",
    "scheduling.pool_ops",
    "market.negotiate_calls",
    "market.quote_calls",
    "market.accept_share",
    "obs.flight.records",
    "audit.violations",
)

#: Per-call layer times shown beside the counts (where a saving should appear).
SHOWN_TIMES = (
    "site.admission.evaluate_us",
    "scheduling.scores_us",
    "site.preempt_scores_us",
    "obs.flight.us_per_record",
    "sim.kernel_us_per_event",
    "budget.residual_share",
    "trace.overhead_ratio",
)

#: A row of the traced run's layer budget: ``<span name>  calls=<n> ...``.
_BUDGET_ROW = re.compile(r"^\s+(\S+)\s+calls=\s*(\d+)\s", re.MULTILINE)


def drop_bytecode(tree: str) -> int:
    """Delete every ``__pycache__`` under *tree*; returns how many."""
    doomed = [
        os.path.join(root, "__pycache__")
        for root, dirs, _ in os.walk(tree)
        if "__pycache__" in dirs
    ]
    for path in doomed:
        shutil.rmtree(path)
    return len(doomed)


def directions(tree: str) -> dict[str, str]:
    """End-to-end metric name -> ``higher`` / ``lower``, from *tree*'s declaration."""
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        return {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}


def run_once(
    tree: str, workload: str, seed: int, smoke: bool, traced: bool = False
) -> dict[str, float]:
    """One ``python -m bench run`` in *tree*; its metrics by name.

    End-to-end metrics untraced; traced, the per-layer metrics plus one
    ``spans:<layer>`` entry per row of the layer budget (its call count).
    """
    command = [sys.executable, "-m", "bench", "run", "--workload", workload,
               "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if traced:
        command.append("--traced")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: bench run exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(
            f"{tree}: correct={result['correct']} failed={result['failed']} "
            f"of {result['attempted']} — refusing to time a wrong answer\n{done.stdout}"
        )
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if traced:
        for layer, calls in _BUDGET_ROW.findall(done.stdout):
            metrics[f"spans:{layer}"] = float(calls)
    return metrics


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(name: str, better: str, a: list[float], b: list[float]) -> str:
    """One metric's block: runs, medians, quartiles, ratio and wins."""
    if better == "higher":
        wins = sum(y > x for x, y in zip(a, b))
    else:
        wins = sum(y < x for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a if med_a else float("nan")
    lines = [f"{name}  ({better} is better)"]
    for label, runs, med in (("A", a, med_a), ("B", b, med_b)):
        q1, q3 = quartiles(runs)
        listed = " / ".join(f"{v:.6g}" for v in runs)
        lines.append(
            f"  {label}: {listed}   median {med:.6g}, quartiles {q1:.6g} – {q3:.6g}"
        )
    lines.append(
        f"  B ÷ A = {ratio:.3f}; B ahead in {wins}/{len(a)} pairs"
        + (f" ({ties} tied)" if ties else "")
    )
    return "\n".join(lines)


def traced_report(a: dict[str, float], b: dict[str, float]) -> tuple[str, list[str]]:
    """The two traced runs side by side, and the names of the counts that differ."""
    spans = sorted(name for name in {*a, *b} if name.startswith("spans:"))
    differing = [
        name for name in (*EXACT_COUNTS, *spans) if a.get(name, 0.0) != b.get(name, 0.0)
    ]
    lines = [f"{'':36s} {'A':>14s} {'B':>14s}"]
    for name in (*EXACT_COUNTS, *spans, *SHOWN_TIMES):
        x, y = a.get(name, 0.0), b.get(name, 0.0)
        if x or y:
            mark = "   <-- differs" if name in differing else ""
            lines.append(f"{name:36s} {x:14.6g} {y:14.6g}{mark}")
    return "\n".join(lines), differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir", metavar="A_DIR", help="the parent checkout")
    parser.add_argument("b_dir", metavar="B_DIR", help="the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true",
                        help="then one traced run per side; exit 1 if a count differs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    trees = {"A": os.path.abspath(args.a_dir), "B": os.path.abspath(args.b_dir)}
    for label, tree in trees.items():
        print(f"{label} = {tree}  ({drop_bytecode(tree)} __pycache__ removed)")
    better = directions(trees["A"])

    runs: dict[str, list[dict[str, float]]] = {"A": [], "B": []}
    for pair in range(args.pairs):
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for label in order:
            metrics = run_once(trees[label], args.workload, args.seed, args.smoke)
            runs[label].append(metrics)
            shown = "  ".join(f"{k}={v:.6g}" for k, v in metrics.items())
            print(f"pair {pair + 1}/{args.pairs} {label}: {shown}", flush=True)

    print(f"\n{args.workload}  seed {args.seed}  {args.pairs} alternating pairs"
          + ("  [smoke sizing: numbers are NOT comparable]" if args.smoke else ""))
    for name in runs["A"][0]:
        a = [r[name] for r in runs["A"]]
        b = [r[name] for r in runs["B"]]
        print(report(name, better[name], a, b))
    if not args.traced:
        return 0
    traced = {
        label: run_once(tree, args.workload, args.seed, args.smoke, traced=True)
        for label, tree in trees.items()
    }
    table, differing = traced_report(traced["A"], traced["B"])
    print(f"\ntraced, one run per side (counts compared exactly; times shown only)\n{table}")
    if differing:
        print(f"counts differ between A and B: {', '.join(differing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
