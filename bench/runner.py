"""The run protocol: one workload, one fresh interpreter, one record.

* set-up is timed in fresh child interpreters (median of a few);
* the workload's units are interleaved over at least ``min_rounds``
  rounds and every reported time is built from per-unit medians;
* every unit's digest must repeat bit for bit across rounds, match the
  traced run, and (seed 0) match ``bench/golden.json``;
* any breach marks all of the workload's operations failed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Any, Optional

from bench import ROOT, child_env, hostspeed, stats
from bench.spec import DRIVER_E2E, PER_LAYER, SMOKE, WORKLOADS, Sizes, e2e_for

_now = time.perf_counter

GOLDEN_PATH = os.path.join(ROOT, "bench", "golden.json")
RECORD_SCHEMA = 1


def make_workdir(workload: str) -> str:
    path = os.path.join(ROOT, ".bench_run", f"{workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------

def build_sim_workload(name: str, sizes: Sizes, seed: int, workdir: str):
    from bench.sim_workloads import SIM_WORKLOADS

    return SIM_WORKLOADS[name](sizes, seed, workdir)


def probe_main(workload: str, seed: int, sizes: Sizes) -> None:
    """Body of a set-up probe: everything a run does before its first timed unit."""
    workdir = make_workdir(workload)
    try:
        build_sim_workload(workload, sizes, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def sim_setup_s(workload: str, seed: int, sizes: Sizes, paces: list[float]) -> float:
    """Median (pace-corrected) wall of fresh interpreters doing the set-up."""
    samples = []
    before = hostspeed.sample()
    for _ in range(sizes.setup_probes):
        started = _now()
        subprocess.run(
            [sys.executable, "-m", "bench", "probe", "--workload", workload,
             "--seed", str(seed), *(["--smoke"] if sizes is SMOKE else [])],
            cwd=ROOT, env=child_env(), check=True, timeout=120,
        )
        wall = _now() - started
        after = hostspeed.sample()
        samples.append(hostspeed.corrected(wall, before, after))
        paces.append(after)
        before = after
    return stats.median(samples)


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------

def load_golden() -> dict:
    try:
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def bless(sizing: str, workload: str, digests: dict[str, str]) -> None:
    golden = load_golden()
    golden.setdefault(sizing, {})[workload] = digests
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def golden_breaches(sizing: str, workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    if seed != 0:
        return []
    expected = load_golden().get(sizing, {}).get(workload)
    if expected is None:
        return [f"no golden digests for {workload} at {sizing} sizing (run --bless)"]
    return [
        f"digest of {unit} differs from bench/golden.json"
        for unit in sorted(set(expected) | set(digests))
        if expected.get(unit) != digests.get(unit)
    ]


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------

def _timed_round(workload, digests, facts, breaches, paces) -> dict[str, float]:
    """Every unit once; walls corrected by the host pace around each unit."""
    row = {}
    before = hostspeed.sample()
    for unit in workload.units:
        outcome = workload.run(unit)
        after = hostspeed.sample()
        row[unit] = hostspeed.corrected(outcome.wall_s, before, after)
        paces.append(after)
        before = after
        facts[unit] = outcome.facts
        if digests.setdefault(unit, outcome.digest) != outcome.digest:
            breaches.append(f"digest of {unit} changed between rounds")
    return row


def _traced_round(workload, digests, breaches, paces) -> tuple[dict[str, float], dict[str, float], dict]:
    """One traced pass over the units: layer metrics, unit walls, budget rows
    (all times corrected by the host pace around each unit)."""
    from bench.sim_workloads import TraceCounters, layer_metrics
    from bench.tracing import LayerTime, Tracer

    tracer, counters = Tracer(), TraceCounters()
    walls: dict[str, float] = {}
    layers: dict[str, LayerTime] = {}
    before = hostspeed.sample()
    for unit in workload.traced_units:
        outcome = workload.run_traced(unit, tracer, counters)
        after = hostspeed.sample()
        scale = hostspeed.corrected(1.0, before, after)
        walls[unit] = outcome.wall_s * scale
        tracer.drain_into(layers, scale)
        paces.append(after)
        before = after
        if digests.get(unit) != outcome.digest:
            breaches.append(f"traced digest of {unit} differs from the untraced run")
    budget = {
        name: {"calls": t.calls, "inclusive_s": t.inclusive_s, "self_s": t.self_s}
        for name, t in layers.items()
    }
    return layer_metrics(layers, counters, sum(walls.values())), walls, budget


def run_sim(name: str, seed: int, seconds: float, sizes: Sizes, traced: bool,
            do_bless: bool) -> dict[str, Any]:
    workdir = make_workdir(name)
    try:
        paces: list[float] = []
        setup_s = sim_setup_s(name, seed, sizes, paces)
        workload = build_sim_workload(name, sizes, seed, workdir)
        digests: dict[str, str] = {}
        facts: dict[str, dict] = {}
        breaches: list[str] = []
        rounds: list[dict[str, float]] = []
        traced_rounds: list[dict[str, float]] = []
        traced_walls: list[dict[str, float]] = []
        budget: dict = {}
        minimum = sizes.traced_rounds if traced else sizes.min_rounds
        started = _now()
        while True:
            rounds.append(_timed_round(workload, digests, facts, breaches, paces))
            if traced:
                metrics, walls, budget = _traced_round(workload, digests, breaches, paces)
                traced_rounds.append(metrics)
                traced_walls.append(walls)
            elapsed = _now() - started
            if len(rounds) >= minimum and elapsed * (1 + 1 / len(rounds)) > seconds:
                break
        breaches += workload.check(digests, facts)
        if do_bless:
            bless(sizes.label, name, digests)
        breaches += golden_breaches(sizes.label, name, seed, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(rounds) * sum(workload.tasks_in(u) for u in workload.units)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = _record(name, seed, seconds, sizes, traced, len(rounds), attempted,
                     attempted if breaches else 0, breaches)
    record["digests"] = digests
    record["host_pace"] = hostspeed.pace(paces)
    record["e2e"] = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **workload.e2e(rounds)}
    record["driver"] = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **workload.driver(rounds)}
    if traced:
        layers = {
            key: stats.median([row[key] for row in traced_rounds])
            for key in traced_rounds[0]
        }
        layers.update(workload.ext_layers(rounds, facts))
        layers["host.pace"] = record["host_pace"]
        # fastest round of each unit on both sides: the first untraced
        # round runs cold, and a traced run has too few rounds for medians
        layers["trace.overhead_ratio"] = sum(
            min(row[u] for row in traced_walls) for u in workload.traced_units
        ) / sum(min(row[u] for row in rounds) for u in workload.traced_units)
        record["layers"] = _all_layers(layers)
        record["budget"] = budget
    return record


# ----------------------------------------------------------------------
# live_bids
# ----------------------------------------------------------------------

def run_live_workload(seed: int, seconds: float, sizes: Sizes, traced: bool) -> dict[str, Any]:
    from bench import live_workload as live

    name = "live_bids"
    workdir = make_workdir(name)
    try:
        probes = [live.setup_probe(workdir) for _ in range(sizes.setup_probes - 1)]
        cycles = sizes.traced_rounds if traced else sizes.live_cycles
        result = live.run_live(sizes, seed, seconds, workdir, cycles)
        setup_s = stats.median([*probes, result.setup_s])
        layers = None
        if traced:
            layers = {**result.ext_layers, **live.run_live_traced(sizes, seed, workdir)}
            layers["host.pace"] = result.host_pace
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = result.attempted if result.breaches else result.failed
    record = _record(name, seed, seconds, sizes, traced, cycles, result.attempted,
                     failed, result.breaches)
    record["digests"] = {}
    record["host_pace"] = result.host_pace
    record["e2e"] = {"setup_s": setup_s, **result.e2e}
    record["driver"] = {"setup_s": setup_s, **result.driver}
    if layers is not None:
        record["layers"] = _all_layers(layers)
    return record


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

def _record(name, seed, seconds, sizes, traced, rounds, attempted, failed, breaches) -> dict:
    return {
        "schema": RECORD_SCHEMA,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "sizing": sizes.label,
        "comparable": sizes.label == "full",
        "traced": traced,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "correct": not breaches and failed == 0,
        "breaches": breaches,
    }


def _all_layers(measured: dict[str, float]) -> dict[str, float]:
    """Every declared per-layer metric; a layer not entered reports 0."""
    unknown = set(measured) - {m.name for m in PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {m.name: float(measured.get(m.name, 0.0)) for m in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, sizes: Sizes, traced: bool,
                 do_bless: bool = False) -> dict[str, Any]:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; options: {sorted(WORKLOADS)}")
    if name == "live_bids":
        return run_live_workload(seed, seconds, sizes, traced)
    return run_sim(name, seed, seconds, sizes, traced, do_bless)


def driver_line(record: dict[str, Any]) -> str:
    """The referee's result line: end-to-end metrics untraced, per-layer traced."""
    if record["traced"]:
        metrics = {m.name: {"value": record["layers"][m.name], "unit": m.unit} for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": record["driver"][m.name], "unit": m.unit} for m in DRIVER_E2E}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def format_record(record: dict[str, Any]) -> str:
    """Every metric of one record by name and unit."""
    name = record["workload"]
    tag = "" if record["comparable"] else "  [smoke sizing: numbers are NOT comparable]"
    lines = [
        f"== {name}  seed={record['seed']} rounds={record['rounds']} "
        f"ops={record['attempted']} failed={record['failed']} "
        f"correct={record['correct']} host_pace={record['host_pace']:.2f}{tag}"
    ]
    lines += [f"   BREACH: {breach}" for breach in record["breaches"]]
    for metric in e2e_for(name):
        lines.append(f"   {metric.name:32s} {record['e2e'][metric.name]:14.4f} {metric.unit}")
    if record["traced"]:
        for metric in PER_LAYER:
            value = record["layers"][metric.name]
            if value:
                lines.append(f"   {metric.name:36s} {value:14.4f} {metric.unit}")
        budget = record.get("budget")
        if budget:
            total = sum(row["self_s"] for row in budget.values())
            lines.append("   layer budget (self time, share of traced total):")
            for layer, row in sorted(budget.items(), key=lambda kv: -kv[1]["self_s"]):
                lines.append(
                    f"     {layer:30s} calls={row['calls']:8d} "
                    f"self={row['self_s']:9.4f}s {row['self_s'] / total:6.1%}"
                )
    return "\n".join(lines)


def append_record(path: str, record: dict[str, Any]) -> None:
    doc: dict[str, Any] = {"schema": RECORD_SCHEMA, "runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            doc = json.load(handle)
    doc["runs"].append(record)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_records(path: str) -> list[dict[str, Any]]:
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != RECORD_SCHEMA:
        raise SystemExit(f"{path}: record schema {doc.get('schema')!r} != {RECORD_SCHEMA}")
    return doc["runs"]


def run_in_fresh_interpreter(name: str, seed: int, seconds: float, sizes: Sizes,
                             traced: bool, out: str, do_bless: bool) -> Optional[dict]:
    """Run one workload in its own interpreter; returns its record."""
    command = [
        sys.executable, "-m", "bench", "run", "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0", "--out", out,
    ]
    if sizes is SMOKE:
        command.append("--smoke")
    if do_bless:
        command.append("--bless")
    before = len(load_records(out)) if os.path.exists(out) else 0
    done = subprocess.run(command, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    records = load_records(out) if os.path.exists(out) else []
    if done.returncode != 0 or len(records) != before + 1:
        return None
    return records[-1]
