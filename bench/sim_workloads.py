"""The three simulator workloads, untraced and traced.

Each workload is a list of *units* (cells or phases) that the run
protocol times once per round, interleaved.  ``run(unit)`` makes the
public call and returns its wall time plus a digest of its outputs;
``run_traced(unit, tracer)`` makes the same call with the wrappers of
:mod:`bench.tracing` and must return the same digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from bench import stats
from bench.spec import Sizes
from bench.tracing import (
    DepthStats,
    LayerTime,
    TracedAdmission,
    TracedFlightRecorder,
    TracedHeuristic,
    TracedMarketSite,
    TracedSimulator,
    Tracer,
    residual_share,
    trace_engine,
)
from repro.audit import audit_recording
from repro.experiments.fig6 import fig67_spec
from repro.experiments.parallel import (
    CellExecutor,
    build_admission,
    build_heuristic,
    run_site_cell,
)
from repro.market import MarketSite, run_market
from repro.obs.flight import FlightRecorder, JournalSink, read_recording
from repro.replay import parse_policy, replay_recording
from repro.scheduling import FirstReward
from repro.sim import Simulator
from repro.site import SlackAdmission, TaskServiceSite, YieldLedger, simulate_site
from repro.workload import economy_spec, generate_trace

_now = time.perf_counter

DISCOUNT = 0.01
SLACK = ("slack", {"threshold": 180.0, "discount_rate": DISCOUNT})


def digest_of(payload: Any) -> str:
    """sha256 of the canonical JSON of *payload* (floats as hex strings)."""

    def canon(value: Any) -> Any:
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {str(k): canon(v) for k, v in sorted(value.items())}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        if isinstance(value, (np.floating, np.integer)):
            return canon(value.item())
        return value

    text = json.dumps(canon(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """One timed unit: wall seconds of the public call, digest of its outputs."""

    wall_s: float
    digest: str
    #: untimed facts about the unit that per-layer metrics are built from
    facts: dict[str, float] = field(default_factory=dict)


@dataclass
class TraceCounters:
    """Counts taken at the traced boundaries of one round."""

    events: int = 0
    preempt_swaps: int = 0
    admission_calls: int = 0
    admission_accepts: int = 0
    admission_depth_max: int = 0
    scores: DepthStats = field(default_factory=DepthStats)
    bids: int = 0
    bids_accepted: int = 0
    records: int = 0
    journal_bytes: int = 0
    violations: int = 0

    def note_heuristic(self, heuristic: TracedHeuristic) -> None:
        for kind, depth in heuristic.depth.items():
            self.scores.add(depth)
            if kind == "admission":
                self.admission_depth_max = max(self.admission_depth_max, depth.depth_max)

    def note_admission(self, admission: Optional[TracedAdmission]) -> None:
        if admission is not None:
            self.admission_calls += admission.calls
            self.admission_accepts += admission.accepted


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    layers: dict[str, LayerTime], counters: TraceCounters, traced_total_s: float
) -> dict[str, float]:
    """The simulator-side per-layer metrics of one traced round."""

    def get(name: str) -> LayerTime:
        return layers.get(name, LayerTime())

    run, schedule = get("sim.run"), get("sim.schedule")
    submit, complete = get("site.submit"), get("site.complete")
    evaluate = get("site.admission.evaluate")
    scores, preempt_scores = get("scheduling.scores"), get("scheduling.scores.preempt")
    pool = get("scheduling.pool")
    negotiate, quote, award = (
        get("market.negotiate"), get("market.quote"), get("market.award"),
    )
    record = get("obs.flight.record")
    kernel_self = run.self_s + schedule.self_s
    all_scores_s = scores.inclusive_s + preempt_scores.inclusive_s
    all_scores_calls = scores.calls + preempt_scores.calls
    return {
        "workload.generate_s": get("workload.generate").inclusive_s,
        "workload.to_tasks_s": get("workload.to_tasks").inclusive_s,
        "sim.run_s": run.inclusive_s,
        "sim.events": float(counters.events),
        "sim.kernel_self_s": kernel_self,
        "sim.kernel_us_per_event": 1e6 * _ratio(kernel_self, counters.events),
        "site.submit_s": submit.inclusive_s,
        "site.submit_calls": float(submit.calls),
        "site.complete_s": complete.inclusive_s,
        "site.self_s": submit.self_s + complete.self_s,
        "site.preempt_scores_us": 1e6 * _ratio(preempt_scores.inclusive_s, preempt_scores.calls),
        "site.preempt_swaps": float(counters.preempt_swaps),
        "site.admission.evaluate_s": evaluate.inclusive_s,
        "site.admission.evaluate_calls": float(evaluate.calls),
        "site.admission.evaluate_us": 1e6 * _ratio(evaluate.inclusive_s, evaluate.calls),
        "site.admission.accept_share": _ratio(counters.admission_accepts, counters.admission_calls),
        "site.admission.depth_max": float(counters.admission_depth_max),
        "scheduling.scores_s": all_scores_s,
        "scheduling.scores_calls": float(all_scores_calls),
        "scheduling.scores_us": 1e6 * _ratio(all_scores_s, all_scores_calls),
        "scheduling.pool_depth_mean": _ratio(counters.scores.depth_sum, counters.scores.calls),
        "scheduling.pool_depth_max": float(counters.scores.depth_max),
        "scheduling.pool_s": pool.inclusive_s,
        "scheduling.pool_ops": float(pool.calls),
        "market.negotiate_s": negotiate.inclusive_s,
        "market.negotiate_calls": float(negotiate.calls),
        "market.quote_s": quote.inclusive_s,
        "market.quote_calls": float(quote.calls),
        "market.award_s": award.inclusive_s,
        "market.accept_share": _ratio(counters.bids_accepted, counters.bids),
        "obs.flight.record_s": record.inclusive_s,
        "obs.flight.records": float(counters.records),
        "obs.flight.us_per_record": 1e6 * _ratio(record.inclusive_s, record.calls),
        "obs.flight.bytes": float(counters.journal_bytes),
        "obs.flight.read_s": get("obs.flight.read").inclusive_s,
        "audit.audit_s": get("audit.audit").inclusive_s,
        "audit.violations": float(counters.violations),
        "replay.replay_s": get("replay.replay").inclusive_s,
        "budget.residual_share": residual_share(traced_total_s, layers),
    }


class SimWorkload:
    """Common shape of the simulator workloads (see module docstring)."""

    name: str
    #: units timed every round, in the order they are interleaved
    units: list[str]
    #: units that have a traced variant (the layer budget covers these)
    traced_units: list[str]

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir

    def tasks_in(self, unit: str) -> int:
        raise NotImplementedError

    def run(self, unit: str) -> Outcome:
        raise NotImplementedError

    def run_traced(self, unit: str, tracer: Tracer, counters: TraceCounters) -> Outcome:
        raise NotImplementedError

    def check(self, digests: dict[str, str], facts: dict[str, dict[str, float]]) -> list[str]:
        """Workload-specific gates beyond digest agreement; returns breaches."""
        return []

    def e2e(self, rounds: list[dict[str, float]]) -> dict[str, float]:
        """The issue's end-to-end metrics from per-round unit walls."""
        raise NotImplementedError

    def driver(self, rounds: list[dict[str, float]]) -> dict[str, float]:
        """``tasks_per_s``, ``phase2_tasks_per_s``, ``task_p50_ms`` for the referee."""
        raise NotImplementedError

    def ext_layers(
        self, rounds: list[dict[str, float]], facts: dict[str, dict[str, float]]
    ) -> dict[str, float]:
        """Per-layer metrics observed from the untraced rounds."""
        return {}

    def _per_task_ms(self, medians: dict[str, float], units: list[str]) -> float:
        return stats.median([1e3 * medians[u] / self.tasks_in(u) for u in units])


# ----------------------------------------------------------------------
# Traced single-site cell (what run_site_cell / simulate_site do, with
# the kernel, heuristic, admission policy and pool swapped for wrappers)
# ----------------------------------------------------------------------

def traced_site_run(
    trace,
    processors: int,
    heuristic_desc,
    admission_desc,
    tracer: Tracer,
    counters: TraceCounters,
    **site_kwargs: Any,
):
    heuristic = TracedHeuristic(build_heuristic(heuristic_desc), tracer)
    inner_admission = build_admission(admission_desc)
    admission = (
        TracedAdmission(inner_admission, heuristic, tracer)
        if inner_admission is not None
        else None
    )
    sim = TracedSimulator(tracer)
    ledger = YieldLedger(keep_records=False)
    site = TaskServiceSite(
        sim,
        processors=processors,
        heuristic=heuristic,
        admission=admission,
        ledger=ledger,
        **site_kwargs,
    )
    trace_engine(site, heuristic, tracer)
    with tracer.span("workload.to_tasks"):
        tasks = trace.to_tasks()
    with tracer.span("sim.schedule"):
        for task in tasks:
            sim.schedule_at(task.arrival, site.submit, task, tag="arrival")
    sim.run()
    if not site.all_work_done() or any(not t.finished for t in tasks):
        raise RuntimeError("traced cell drained with work outstanding")
    counters.events += sim.events_fired
    counters.preempt_swaps += ledger.preemptions
    counters.note_heuristic(heuristic)
    counters.note_admission(admission)
    return ledger, tasks


# ----------------------------------------------------------------------
# 1. fig6_admission
# ----------------------------------------------------------------------

class Fig6Admission(SimWorkload):
    name = "fig6_admission"
    LOADS = (0.5, 1.5, 3.0)
    ALPHAS = (0.0, 0.4)

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        super().__init__(sizes, seed, workdir)
        self.cells: dict[str, tuple] = {}
        for load in self.LOADS:
            spec = fig67_spec(load, n_jobs=sizes.fig6_jobs, processors=16)
            for alpha in self.ALPHAS:
                heuristic = ("firstreward", {"alpha": alpha, "discount_rate": DISCOUNT})
                self.cells[f"load{load:g}/alpha{alpha:g}+slack"] = (spec, heuristic, SLACK)
            self.cells[f"load{load:g}/firstprice"] = (spec, ("firstprice", {}), None)
        self.serial = list(self.cells)
        self.units = [*self.serial, "w2", "w2_startup"]
        self.traced_units = list(self.serial)

    def tasks_in(self, unit: str) -> int:
        if unit == "w2_startup":
            return 0
        return self.sizes.fig6_jobs * (len(self.cells) if unit == "w2" else 1)

    def _cell_digest(self, value: float) -> str:
        return digest_of({"yield_rate": float(value)})

    def run(self, unit: str) -> Outcome:
        if unit == "w2":
            started = _now()
            with CellExecutor(workers=2) as ex:
                handles = [
                    ex.submit(run_site_cell, spec, heuristic, self.seed, "yield_rate", admission)
                    for spec, heuristic, admission in self.cells.values()
                ]
                values = [h.result() for h in handles]
            wall = _now() - started
            return Outcome(wall, digest_of([self._cell_digest(v) for v in values]))
        if unit == "w2_startup":
            # what two workers cost before they do any work: pool spawn
            # plus one no-op round trip each
            started = _now()
            with CellExecutor(workers=2) as ex:
                answers = [h.result() for h in [ex.submit(int), ex.submit(int)]]
            return Outcome(_now() - started, digest_of(answers))
        spec, heuristic, admission = self.cells[unit]
        started = _now()
        value = run_site_cell(spec, heuristic, self.seed, "yield_rate", admission)
        return Outcome(_now() - started, self._cell_digest(value))

    def run_traced(self, unit: str, tracer: Tracer, counters: TraceCounters) -> Outcome:
        spec, heuristic, admission = self.cells[unit]
        started = _now()
        with tracer.span("workload.generate"):
            trace = generate_trace(spec, seed=self.seed)
        ledger, _tasks = traced_site_run(
            trace, spec.processors, heuristic, admission, tracer, counters
        )
        value = ledger.yield_rate
        return Outcome(_now() - started, self._cell_digest(value))

    def check(self, digests, facts) -> list[str]:
        expected = digest_of([digests[u] for u in self.serial])
        if digests["w2"] != expected:
            return ["CellExecutor(2) results differ from the serial cells"]
        return []

    def e2e(self, rounds) -> dict[str, float]:
        total = self.tasks_in("w2")
        return {
            "tasks_per_s": total / stats.sum_of_medians(rounds, self.serial),
            "w2_tasks_per_s": total / stats.sum_of_medians(rounds, ["w2"]),
        }

    def driver(self, rounds) -> dict[str, float]:
        e2e = self.e2e(rounds)
        return {
            "tasks_per_s": e2e["tasks_per_s"],
            "phase2_tasks_per_s": e2e["w2_tasks_per_s"],
            "task_p50_ms": self._per_task_ms(stats.unit_medians(rounds), self.serial),
        }

    def ext_layers(self, rounds, facts) -> dict[str, float]:
        medians = stats.unit_medians(rounds)
        serial_s = stats.sum_of_medians(rounds, self.serial)
        return {
            "experiments.w2_startup_s": medians["w2_startup"],
            "experiments.w2_efficiency": serial_s / (2.0 * medians["w2"]),
        }


# ----------------------------------------------------------------------
# 2. backlog_dispatch
# ----------------------------------------------------------------------

def _site_digest(ledger: YieldLedger, tasks) -> str:
    completions = np.array(
        [np.nan if t.completion is None else t.completion for t in tasks]
    )
    return digest_of(
        {
            "summary": ledger.summary(),
            "states": hashlib.sha256(
                ",".join(t.state.value for t in tasks).encode()
            ).hexdigest(),
            "completions": hashlib.sha256(completions.tobytes()).hexdigest(),
        }
    )


class BacklogDispatch(SimWorkload):
    name = "backlog_dispatch"
    HEURISTICS = {
        "firstreward0.3": ("firstreward", {"alpha": 0.3, "discount_rate": DISCOUNT}),
        "firstreward0": ("firstreward", {"alpha": 0.0, "discount_rate": DISCOUNT}),
        "firstprice": ("firstprice", {}),
        "pv": ("pv", {"discount_rate": DISCOUNT}),
    }

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        super().__init__(sizes, seed, workdir)
        spec = economy_spec(
            n_jobs=sizes.backlog_jobs, value_skew=3, decay_skew=5, load_factor=3.0,
            processors=16, penalty_bound=None,
        )
        preempt_spec = economy_spec(
            n_jobs=sizes.preempt_jobs, value_skew=3, decay_skew=5, load_factor=2.0,
            processors=16, penalty_bound=0.0,
        )
        self.trace = generate_trace(spec, seed=seed)
        self.preempt_trace = generate_trace(preempt_spec, seed=seed)
        self.serial = list(self.HEURISTICS)
        self.units = [*self.serial, "preempt"]
        self.traced_units = list(self.units)

    def tasks_in(self, unit: str) -> int:
        return self.sizes.preempt_jobs if unit == "preempt" else self.sizes.backlog_jobs

    def _cell(self, unit: str):
        if unit == "preempt":
            return self.preempt_trace, self.HEURISTICS["firstreward0.3"], {"preemption": True}
        return self.trace, self.HEURISTICS[unit], {}

    def run(self, unit: str) -> Outcome:
        trace, heuristic, kwargs = self._cell(unit)
        started = _now()
        result = simulate_site(
            trace, build_heuristic(heuristic), processors=16, keep_records=False, **kwargs
        )
        wall = _now() - started
        return Outcome(wall, _site_digest(result.ledger, result.tasks))

    def run_traced(self, unit: str, tracer: Tracer, counters: TraceCounters) -> Outcome:
        trace, heuristic, kwargs = self._cell(unit)
        started = _now()
        ledger, tasks = traced_site_run(trace, 16, heuristic, None, tracer, counters, **kwargs)
        wall = _now() - started
        return Outcome(wall, _site_digest(ledger, tasks))

    def e2e(self, rounds) -> dict[str, float]:
        serial_s = stats.sum_of_medians(rounds, self.serial)
        return {
            "tasks_per_s": len(self.serial) * self.sizes.backlog_jobs / serial_s,
            "preempt_tasks_per_s": self.sizes.preempt_jobs
            / stats.sum_of_medians(rounds, ["preempt"]),
        }

    def driver(self, rounds) -> dict[str, float]:
        e2e = self.e2e(rounds)
        return {
            "tasks_per_s": e2e["tasks_per_s"],
            "phase2_tasks_per_s": e2e["preempt_tasks_per_s"],
            "task_p50_ms": self._per_task_ms(stats.unit_medians(rounds), self.serial),
        }


# ----------------------------------------------------------------------
# 3. market_recorded
# ----------------------------------------------------------------------

class MarketRecorded(SimWorkload):
    name = "market_recorded"
    SITES = 4
    SLOTS = 4

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        super().__init__(sizes, seed, workdir)
        self.trace = generate_trace(market_spec(sizes.market_bids), seed=seed)
        self.journal = os.path.join(workdir, "market.journal.jsonl")
        self.units = ["unrecorded", "journaled", "postmortem"]
        self.traced_units = ["journaled", "postmortem"]

    def tasks_in(self, unit: str) -> int:
        return self.sizes.market_bids

    def _sites(self, sim, tracer: Optional[Tracer] = None) -> list:
        sites = []
        for index in range(self.SITES):
            heuristic = FirstReward(0.3, DISCOUNT)
            admission = SlackAdmission(180.0)
            if tracer is None:
                sites.append(
                    MarketSite(sim, f"site-{index}", self.SLOTS, heuristic, admission=admission)
                )
                continue
            traced = TracedHeuristic(heuristic, tracer)
            site = TracedMarketSite(
                tracer, sim, f"site-{index}", self.SLOTS, traced,
                admission=TracedAdmission(admission, traced, tracer),
            )
            sites.append(site)
        return sites

    @staticmethod
    def _market_digest(result) -> tuple[str, dict[str, float]]:
        fates = [
            (o.accepted, o.winner.site_id if o.winner is not None else None, len(o.quotes))
            for o in result.outcomes
        ]
        summary = result.summary()
        digest = digest_of({"summary": summary, "fates": fates})
        return digest, {
            "revenue": summary["total_revenue"],
            "bids": float(summary["bids"]),
            "accepted": float(summary["accepted"]),
        }

    def _postmortem_digest(self, recording, report, doc) -> tuple[str, dict[str, float]]:
        digest = digest_of(
            {
                "records": len(recording),
                "violations": [v["code"] for v in report.to_doc()["violations"]],
                "table": doc["table"],
                "changed": {k: v["changed_bids"] for k, v in doc["divergence"].items()},
            }
        )
        return digest, {
            "violations": float(len(report.to_doc()["violations"])),
            "records": float(len(recording)),
            "journal_bytes": float(os.path.getsize(self.journal)),
        }

    def run(self, unit: str) -> Outcome:
        if unit == "postmortem":
            started = _now()
            recording = read_recording(self.journal)
            read_done = _now()
            report = audit_recording(recording)
            audit_done = _now()
            doc = replay_recording(recording, [parse_policy("firstprice")])
            wall = _now() - started
            digest, facts = self._postmortem_digest(recording, report, doc)
            facts["read_s"] = read_done - started
            facts["audit_s"] = audit_done - read_done
            return Outcome(wall, digest, facts)
        started = _now()
        flight = None
        if unit == "journaled":
            flight = FlightRecorder(
                sink=JournalSink(self.journal, fsync="off"), clock_domain="sim"
            )
        sim = Simulator()
        result = run_market(self.trace, self._sites(sim), flight=flight)
        if flight is not None:
            flight.close()
        wall = _now() - started
        digest, facts = self._market_digest(result)
        return Outcome(wall, digest, facts)

    def run_traced(self, unit: str, tracer: Tracer, counters: TraceCounters) -> Outcome:
        if unit == "postmortem":
            started = _now()
            with tracer.span("obs.flight.read"):
                recording = read_recording(self.journal)
            with tracer.span("audit.audit"):
                report = audit_recording(recording)
            with tracer.span("replay.replay"):
                doc = replay_recording(recording, [parse_policy("firstprice")])
            wall = _now() - started
            digest, facts = self._postmortem_digest(recording, report, doc)
            counters.violations += int(facts["violations"])
            counters.records += int(facts["records"])
            counters.journal_bytes += int(facts["journal_bytes"])
            return Outcome(wall, digest, facts)
        started = _now()
        flight = TracedFlightRecorder(
            tracer, sink=JournalSink(self.journal, fsync="off"), clock_domain="sim"
        )
        sim = TracedSimulator(tracer)
        sites = self._sites(sim, tracer)
        result = run_market(self.trace, sites, flight=flight)
        flight.close()
        wall = _now() - started
        counters.events += sim.events_fired
        counters.bids += len(result.outcomes)
        counters.bids_accepted += result.accepted
        for site in sites:
            counters.note_heuristic(site.engine.heuristic)
            counters.note_admission(site.admission)
        digest, facts = self._market_digest(result)
        return Outcome(wall, digest, facts)

    def check(self, digests, facts) -> list[str]:
        breaches = []
        if facts["postmortem"]["violations"]:
            breaches.append(
                f"audit found {int(facts['postmortem']['violations'])} violation(s)"
            )
        if facts["unrecorded"]["revenue"] != facts["journaled"]["revenue"]:
            breaches.append("recorded revenue differs from unrecorded revenue")
        if digests["unrecorded"] != digests["journaled"]:
            breaches.append("recording changed the market's decisions")
        return breaches

    def e2e(self, rounds) -> dict[str, float]:
        medians = stats.unit_medians(rounds)
        return {
            "tasks_per_s": self.sizes.market_bids / medians["journaled"],
            "postmortem_s": medians["postmortem"],
        }

    def driver(self, rounds) -> dict[str, float]:
        medians = stats.unit_medians(rounds)
        bids = self.sizes.market_bids
        return {
            "tasks_per_s": bids / medians["journaled"],
            "phase2_tasks_per_s": bids / medians["postmortem"],
            "task_p50_ms": 1e3 * medians["unrecorded"] / bids,
        }

    def ext_layers(self, rounds, facts) -> dict[str, float]:
        medians = stats.unit_medians(rounds)
        return {"obs.flight.overhead_ratio": medians["journaled"] / medians["unrecorded"]}


def market_spec(bids: int):
    """The bid stream shared by ``market_recorded`` and ``live_bids``."""
    return economy_spec(
        n_jobs=bids, value_skew=3, decay_skew=5, load_factor=2.0,
        processors=16, penalty_bound=None,
    )


SIM_WORKLOADS = {
    cls.name: cls for cls in (Fig6Admission, BacklogDispatch, MarketRecorded)
}
