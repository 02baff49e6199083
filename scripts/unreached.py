#!/usr/bin/env python3
"""Which functions of ``src/repro`` does nothing but a test ever enter?

Runs the repository's *non-test* traffic in this one interpreter under
``sys.setprofile`` — every ``examples/*.py``, ``repro all`` at a reduced
``--n-jobs``, ``repro consolidation``, ``repro sensitivity``, one
journaled ``run_market`` followed by audit and replay, and one
``LiveService`` session on ``SimClock`` with a scripted executor — and
prints, per module, the functions that were never entered.  It answers
ROADMAP 6(c)'s question ("is this reached by an experiment, an example
or the service?") by running the traffic instead of grepping for names.

Report only: exit 0 whatever it finds, no baseline file.  A function on
the list is not dead — tests may reach it, and so may ``repro serve`` on
the wall clock, which this script does not start — it is a candidate to
look at.  Standard library only::

    python scripts/unreached.py                   # every package
    python scripts/unreached.py repro.market repro.resilience
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import runpy
import sys
import tempfile
import time
from types import CodeType
from typing import Iterator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
for entry in (ROOT, SRC):  # ROOT: the examples' argv table and the scripted executor
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: job count for the experiment subcommands (quick scale runs 300–1000)
N_JOBS = "120"


# ----------------------------------------------------------------------
# What exists: every function body compiled from the source tree
# ----------------------------------------------------------------------

def _functions(code: CodeType, prefix: str = "") -> Iterator[tuple[int, str]]:
    """``(first line, qualified name)`` of each ``def`` under *code*."""
    for const in code.co_consts:
        if not isinstance(const, CodeType):
            continue
        name = f"{prefix}{const.co_name}"
        # class bodies are not optimized code: descend, do not list; skip
        # lambdas and comprehensions (<lambda>, <listcomp>, …)
        if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
            yield const.co_firstlineno, name
        if not const.co_name.startswith("<"):
            yield from _functions(const, prefix=f"{name}.")


def defined_functions() -> dict[str, tuple[str, dict[int, str]]]:
    """module name -> (source path, {first line: qualified function name})."""
    modules: dict[str, tuple[str, dict[int, str]]] = {}
    for directory, _, files in sorted(os.walk(PACKAGE)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                code = compile(handle.read(), path, "exec")
            relative = os.path.relpath(path, SRC)[: -len(".py")]
            module = relative.replace(os.sep, ".").removesuffix(".__init__")
            modules[module] = (path, dict(_functions(code)))
    return modules


# ----------------------------------------------------------------------
# What runs: the non-test traffic
# ----------------------------------------------------------------------

def _examples() -> None:
    from tests.test_examples import CASES  # the reduced argv each example accepts

    reduced = dict(CASES)
    examples = os.path.join(ROOT, "examples")
    for filename in sorted(os.listdir(examples)):
        if filename.endswith(".py"):
            sys.argv = [filename, *reduced.get(filename, [])]
            runpy.run_path(os.path.join(examples, filename), run_name="__main__")


def _cli(scratch: str) -> None:
    from repro.cli import main

    def out(name: str) -> str:
        return os.path.join(scratch, name)

    small = ["--n-jobs", N_JOBS, "--seeds", "0"]
    # `all` shares one --out between experiments; faults and resilience
    # default theirs into results/, so run those two on their own
    for argv in (
        ["list"],
        ["trace", "--n-jobs", "5"],
        *([name, *small, "--check"] for name in _figure_names()),
        ["faults", *small, "--out", out("faults.json")],
        ["resilience", *small, "--out", out("resilience.json"),
         "--metrics-out", out("resilience_metrics.json")],
        ["fig3", *small, "--plot", "--out", out("fig3.json"),
         "--trace-out", out("trace.json"), "--metrics-out", out("metrics.json")],
        ["fig6", "--n-jobs", N_JOBS, "--reps", "2"],
        ["consolidation", "--n-jobs", N_JOBS],
        ["sensitivity", "--n-jobs", N_JOBS],
        ["sensitivity", "--grid", "load-horizon", "--n-jobs", N_JOBS],
    ):
        main(argv)  # shape-check failures at this size are not this script's business


def _figure_names() -> list[str]:
    """What ``repro all`` runs, minus the two that write into results/."""
    from repro.experiments.runner import EXPERIMENTS

    return [name for name in EXPERIMENTS if name not in ("faults", "resilience")]


def _journaled_market(scratch: str) -> None:
    from repro.cli import main
    from repro.market import MarketSite, run_market
    from repro.market.signals import board_from_recording
    from repro.obs.flight import FlightRecorder, read_recording
    from repro.scheduling import FirstReward
    from repro.sim import Simulator
    from repro.site import SlackAdmission
    from repro.workload import economy_spec, generate_trace

    path = os.path.join(scratch, "market.jsonl")
    trace = generate_trace(economy_spec(n_jobs=200, load_factor=1.5, processors=8), seed=1)
    sim = Simulator()
    sites = [
        MarketSite(sim, f"site-{i}", 4, FirstReward(0.3, 0.01),
                   admission=SlackAdmission(60.0))
        for i in range(2)
    ]
    with FlightRecorder(path) as flight:
        run_market(trace, sites, flight=flight)
    board_from_recording(read_recording(path))
    main(["audit", path, "--out", os.path.join(scratch, "audit.json")])
    main(["replay", path, "--policy", "recorded",
          "--policy", "risky:threshold=0,strategy=earliest,vickrey=true"])


def _live_session(scratch: str) -> None:
    from repro.live.api import ApiError, parse_bid_body
    from repro.live.config import LiveSiteSpec, default_config
    from repro.live.recovery import apply_recovery, plan_recovery
    from repro.obs import Observability
    from repro.obs.flight import FlightRecorder, JournalSink, read_recording
    from repro.sim import Coroutine, SimClock, Simulator
    from tests.live.scripted import scripted_service

    config = default_config(
        rate=60.0,
        queue_watermark=6,
        sites=(  # no slack floor: every bid is contracted, so the queues fill and shed
            LiveSiteSpec(site_id="live-0", slots=1, threshold=-1e9),
            LiveSiteSpec(site_id="live-1", slots=2, threshold=-1e9),
        ),
    )
    path = os.path.join(scratch, "live.jsonl")

    def service_on(sim, append=False):
        flight = FlightRecorder(
            sink=JournalSink(path, fsync="always", append=append), clock_domain="wall"
        )
        service, executors = scripted_service(
            config, clock=SimClock(sim), flight=flight,
            obs=Observability(),
        )
        return service, executors, flight

    def bids(n, runtime=30.0):
        body = ",".join(
            f'{{"runtime": {runtime}, "value": 80, "decay": 0.05, "bound": 20}}'
            for _ in range(n)
        )
        return parse_bid_body(f'{{"bids": [{body}]}}'.encode())

    # a session that dies mid-flight: accepts, a keyed retry, a failed run
    # that requeues, clean exits, a shed burst — then no drain, no close
    sim = Simulator()
    service, executors, flight = service_on(sim)
    service.handle_bids(bids(2), idempotency_key="key-0")
    service.handle_bids(bids(2), idempotency_key="key-0")  # replayed, not re-run
    sim.run(until=10.0)
    for executor in executors:
        for task, _ in list(executor.running.values())[:1]:
            executor.end(task, ok=executor is executors[0])
    with contextlib.suppress(ApiError):
        for _ in range(12):
            service.handle_bids(bids(1, runtime=400.0))
    service.status()

    # recover the journal into a fresh service, finish the work, drain
    plan = plan_recovery(read_recording(path))
    sim = Simulator()
    sim.schedule_at(plan.resume_at, lambda: None)
    sim.run()  # the restarted clock picks up where the journal stopped
    service, executors, flight = service_on(sim, append=True)
    apply_recovery(service, plan, sim.now)
    service.handle_bids(bids(3), idempotency_key="key-1")
    Coroutine(sim, service.drain(), name="drain")
    sim.run(until=sim.now + 10.0)
    for executor in executors:
        for task, _ in list(executor.running.values()):
            executor.end(task)
    sim.run()
    flight.close()


# ----------------------------------------------------------------------

def run_traffic() -> set[tuple[str, int]]:
    """Run everything above; returns the ``(file, first line)`` entered."""
    entered: set[tuple[str, int]] = set()
    prefix = PACKAGE + os.sep

    def on_event(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno))

    argv = sys.argv
    quiet = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            sys.setprofile(on_event)
            try:
                _examples()
                _cli(scratch)
                _journaled_market(scratch)
                _live_session(scratch)
            finally:
                sys.setprofile(None)
                sys.argv = argv
    return entered


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "packages", nargs="*", help="only report modules under these (e.g. repro.market)"
    )
    args = parser.parse_args()
    started = time.perf_counter()
    defined = defined_functions()
    entered = run_traffic()
    total = missed = 0
    for module, (path, functions) in sorted(defined.items()):
        if args.packages and not any(
            module == p or module.startswith(p + ".") for p in args.packages
        ):
            continue
        never = [name for line, name in sorted(functions.items()) if (path, line) not in entered]
        total += len(functions)
        missed += len(never)
        if never:
            print(f"{module}  ({len(never)} of {len(functions)} never entered)")
            for name in never:
                print(f"    {name}")
    print(
        f"unreached: {missed} of {total} functions never entered by the non-test "
        f"traffic ({time.perf_counter() - started:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
