"""Diagnostic records and the rule catalog.

A :class:`Rule` is pure metadata — code, one-line summary, rationale —
used by ``repro lint --list-rules``, the JSON output schema, and the
rule table in ``docs/static_analysis.md`` (generated from it).  The
checking logic lives in the ``rules_*`` modules; keeping the catalog
separate means the CLI can validate ``--select`` arguments without
importing any AST machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule."""

    code: str
    name: str
    summary: str
    rationale: str


#: The full rule catalog, keyed by code.  Ordering is the report order.
RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            code="DET001",
            name="unseeded-rng",
            summary=(
                "RNG call (random.*, np.random.*, default_rng) outside "
                "the seeded-stream module repro.sim.rng"
            ),
            rationale=(
                "Every experiment derives all randomness from one root seed "
                "via RandomStreams; any other RNG entry point breaks "
                "reproducibility silently (paper §4.1)."
            ),
        ),
        Rule(
            code="DET002",
            name="wall-clock-in-sim-path",
            summary=(
                "wall-clock read (time.time, perf_counter, datetime.now) "
                "in sim-path code"
            ),
            rationale=(
                "Simulated behaviour must depend only on the sim clock; "
                "wall-clock reads are allowed only in the observability, "
                "benchmark, and CLI layers where they cannot feed back "
                "into scheduling decisions."
            ),
        ),
        Rule(
            code="DET003",
            name="unordered-iteration",
            summary=(
                "iteration over a set (or set-algebra result) in a "
                "sim/scheduling/market hot path without sorted(...)"
            ),
            rationale=(
                "Set iteration order varies with hash seeding and "
                "insertion history; in a scheduler it silently changes "
                "tie-breaks and therefore byte-identity of results."
            ),
        ),
        Rule(
            code="DET004",
            name="float-eq-sim-time",
            summary="float == / != on sim-time expressions",
            rationale=(
                "Sim-time arithmetic accumulates float error; exact "
                "equality on times makes behaviour depend on summation "
                "order.  Compare with tolerances or restructure around "
                "event identity."
            ),
        ),
        Rule(
            code="DET005",
            name="raw-heapq-in-sim",
            summary=(
                "direct heapq use in repro.sim outside the EventQueue "
                "module repro.sim.queue"
            ),
            rationale=(
                "The event queue owns all heap state in the kernel: its "
                "sorted lane and lazy-cancellation counters keep invariants a "
                "raw heappush/heappop bypasses. "
                "A second heap in repro.sim silently forks the ordering "
                "contract (stable (time, priority, seq) keys) that "
                "byte-identical replays depend on."
            ),
        ),
        Rule(
            code="DET006",
            name="transitive-wall-clock-or-rng",
            summary=(
                "sim-path call whose resolved callee transitively reaches "
                "a wall-clock read or unseeded RNG draw in another module"
            ),
            rationale=(
                "DET001/DET002 see one module at a time; a sim-path "
                "function calling a helper elsewhere that reads time.time() "
                "is exactly as non-reproducible.  The effect engine "
                "propagates WALL_CLOCK/RNG over the project call graph, "
                "cut at the sanctioned observability boundary, and flags "
                "the sim-path call site with a witness chain."
            ),
        ),
        Rule(
            code="ASY001",
            name="blocking-in-async",
            summary=(
                "blocking syscall (os.fsync, time.sleep, Popen.wait, "
                "subprocess.run …) reachable from an async def in "
                "repro.live"
            ),
            rationale=(
                "One blocked coroutine stalls every client on the event "
                "loop: bids stop being answered, deadlines keep draining. "
                "Blocking work must be offloaded (run_in_executor) or the "
                "suppression must argue why the stall is bounded and "
                "acceptable."
            ),
        ),
        Rule(
            code="ASY002",
            name="await-check-then-act",
            summary=(
                "self.<attr> read in an if/while test, an await that "
                "yields the loop, then a dependent mutation of the same "
                "attribute"
            ),
            rationale=(
                "Between the check and the act another task can run and "
                "invalidate the check — the single-threaded-until-await "
                "model makes these races easy to write and hard to see. "
                "Re-check after the await, or mutate before it."
            ),
        ),
        Rule(
            code="WAL001",
            name="act-before-journal",
            summary=(
                "spawn / client-response write / contract settlement in "
                "repro.live or repro.market.sites (where live contracts "
                "settle) with no preceding journal-append intent on the "
                "intraprocedural path"
            ),
            rationale=(
                "PR 8's crash-durability contract: journal the intent, "
                "then act, so recovery can reconcile acts against intents. "
                "An act with no prior intent record is invisible to "
                "recovery — an orphan process or unaccounted settlement "
                "after a crash."
            ),
        ),
        Rule(
            code="OBS001",
            name="print-in-library",
            summary="bare print() in library code",
            rationale=(
                "Library layers report through the metrics registry and "
                "span exporters; stray prints corrupt the CLI's table "
                "output and are invisible to telemetry consumers."
            ),
        ),
        Rule(
            code="OBS002",
            name="clock-read-in-recorder",
            summary=(
                "wall-clock read in a timestamp-passive observability "
                "module (repro.obs.flight/prom, repro.audit, repro.replay, "
                "repro.live.recovery)"
            ),
            rationale=(
                "The flight recorder, Prometheus renderer, auditor, "
                "replayer, and crash-recovery planner consume timestamps "
                "their callers pass from clock.now; reading a clock "
                "directly would tie recordings to the recording machine's "
                "wall time and break sim/live symmetry.  Wall time is "
                "owned by the rest of repro.live alone."
            ),
        ),
    )
}


#: Names for the engine's own pseudo-codes (not part of the rule catalog).
_ENGINE_CODES = {"E999": "parse-error", "NQA000": "stale-noqa"}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violated at a specific file/line/column."""

    path: str
    line: int
    col: int
    code: str
    message: str
    module: str = ""
    suppressed: bool = field(default=False, compare=False)

    def format(self) -> str:
        """``path:line:col: CODE message`` — the text-report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict[str, object]:
        rule = RULES.get(self.code)
        name = rule.name if rule is not None else _ENGINE_CODES.get(self.code, self.code.lower())
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "name": name,
            "message": self.message,
            "module": self.module,
        }


def sort_key(diag: Diagnostic) -> tuple[str, int, int, str]:
    """Stable report order: path, then position, then code."""
    return (diag.path, diag.line, diag.col, diag.code)
