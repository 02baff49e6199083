"""``python -m bench compare A.json B.json``: base against change.

One row per (workload, end-to-end metric): each side's median and
quartiles, the ratio change ÷ base with the base value, the bound, and a
verdict.  Where run-to-run spread is wider than the bound the metric is
*unresolved*, not unchanged, unless every run of the change reads better
than every run of the base.  A changed digest or a larger failed share
fails the comparison whatever the timings say.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from bench import stats
from bench.runner import load_records
from bench.spec import Metric, WORKLOADS, e2e_for


@dataclass
class Row:
    workload: str
    metric: Metric
    base: tuple[float, float, float]  # q1, median, q3
    change: tuple[float, float, float]
    spread: float
    bound: float
    verdict: str

    @property
    def ratio(self) -> float:
        return self.change[1] / self.base[1] if self.base[1] else float("inf")


def worse_by(metric: Metric, base: float, change: float) -> float:
    """How much worse *change* is than *base*, in the bound's own terms
    (share of base, or absolute difference); negative means better."""
    delta = change - base if metric.better == "lower" else base - change
    if metric.absolute:
        return delta
    return delta / abs(base) if base else float("inf")


def spread_of(metric: Metric, values: Sequence[float]) -> float:
    if metric.absolute:
        q1, _mid, q3 = stats.quartiles(values)
        return q3 - q1
    return stats.quartile_spread(values)


def verdict_for(metric: Metric, base: Sequence[float], change: Sequence[float]) -> tuple[str, float, float]:
    """(verdict, spread, effective bound) for one metric on one workload."""
    assert metric.bound is not None
    spread = max(spread_of(metric, base), spread_of(metric, change))
    # a bound narrower than the host's own A/A noise cannot be enforced
    bound = max(metric.bound, spread)
    worse = worse_by(metric, stats.median(base), stats.median(change))
    if metric.better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if worse > bound:
        return "REGRESSED", spread, bound
    if spread > metric.bound:
        return ("improved" if all_better else "unresolved"), spread, bound
    return ("improved" if worse < -bound else "ok"), spread, bound


def _by_workload(records: Sequence[dict[str, Any]], path: str) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for record in records:
        if not record.get("comparable"):
            raise SystemExit(
                f"{path}: holds a {record.get('sizing')!r}-sized run of "
                f"{record['workload']}; smoke numbers are not comparable"
            )
        if record["traced"]:
            continue  # end-to-end numbers come from untraced runs only
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def failed_share(records: Sequence[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 1.0


def digest_changes(base: Sequence[dict], change: Sequence[dict]) -> list[str]:
    """Units whose digest differs between runs of the same seed."""
    seen: dict[tuple[int, str], str] = {}
    for record in base:
        for unit, digest in record["digests"].items():
            seen[record["seed"], unit] = digest
    return sorted(
        {
            f"{unit} (seed {record['seed']})"
            for record in change
            for unit, digest in record["digests"].items()
            if seen.get((record["seed"], unit), digest) != digest
        }
    )


def compare(base_path: str, change_path: str) -> tuple[list[Row], list[str]]:
    base = _by_workload(load_records(base_path), base_path)
    change = _by_workload(load_records(change_path), change_path)
    rows: list[Row] = []
    failures: list[str] = []
    for workload in WORKLOADS:
        a, b = base.get(workload, []), change.get(workload, [])
        if not a or not b:
            if a or b:
                failures.append(f"{workload}: runs on one side only")
            continue
        for unit in digest_changes(a, b):
            failures.append(f"{workload}: digest of {unit} changed")
        if failed_share(b) > failed_share(a):
            failures.append(
                f"{workload}: failed share rose {failed_share(a):.4f} -> {failed_share(b):.4f}"
            )
        for metric in e2e_for(workload):
            va = [r["e2e"][metric.name] for r in a]
            vb = [r["e2e"][metric.name] for r in b]
            verdict, spread, bound = verdict_for(metric, va, vb)
            rows.append(
                Row(workload, metric, stats.quartiles(va), stats.quartiles(vb),
                    spread, bound, verdict)
            )
            if verdict == "REGRESSED":
                failures.append(f"{workload}: {metric.name} regressed beyond its bound")
    return rows, failures


def format_rows(rows: Sequence[Row]) -> str:
    head = (
        f"{'workload':17s} {'metric':24s} {'base med [q1,q3]':>34s} "
        f"{'change med [q1,q3]':>34s} {'ratio (base)':>22s} {'spread':>8s} "
        f"{'bound':>14s}  verdict"
    )
    lines = [head, "-" * len(head)]
    for row in rows:
        m = row.metric

        def side(q: tuple[float, float, float]) -> str:
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

        kind = "abs" if m.absolute else "rel"
        bound = f"{m.bound:g}" if row.bound == m.bound else f"{m.bound:g}->{row.bound:.3f}"
        lines.append(
            f"{row.workload:17s} {m.name:24s} {side(row.base):>34s} "
            f"{side(row.change):>34s} {row.ratio:9.4f} ({row.base[1]:.4g} {m.unit}) "
            f"{row.spread:8.4f} {bound + ' ' + kind:>14s}  {row.verdict}"
        )
    return "\n".join(lines)


def baseline_doc(rows: Sequence[Row]) -> dict:
    """First baseline: medians of the base side and the observed A/A spread
    beside each bound (the widened bound is what later compares enforce)."""
    doc: dict[str, dict] = {}
    for row in rows:
        doc.setdefault(row.workload, {})[row.metric.name] = {
            "unit": row.metric.unit,
            "better": row.metric.better,
            "median": row.base[1],
            "bound": row.metric.bound,
            "bound_kind": "absolute" if row.metric.absolute else "share",
            "observed_aa_spread": row.spread,
            "enforced_bound": row.bound,
        }
    return doc


def main(base_path: str, change_path: str, record_baseline: Optional[str] = None) -> int:
    rows, failures = compare(base_path, change_path)
    print(format_rows(rows))
    for failure in failures:
        print(f"FAIL: {failure}")
    unresolved = [r for r in rows if r.verdict == "unresolved"]
    if unresolved:
        print(f"{len(unresolved)} metric(s) unresolved: spread exceeds the bound")
    if record_baseline and not failures:
        with open(record_baseline, "w") as handle:
            json.dump(baseline_doc(rows), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {record_baseline}")
    return 1 if failures else 0
