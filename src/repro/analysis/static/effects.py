"""Per-function effect inference over the project call graph.

Each analyzed function gets a *direct* effect set from syntactic
detectors over its own body, then a *closure* set by propagating callee
effects backwards over :class:`~repro.analysis.static.callgraph.ProjectGraph`
edges to a fixpoint.  ``via`` links record one witness callee per
(function, effect) so rules can print a human-readable chain
(``_execute -> _note_spawn -> JournalSink.write_line -> os.fsync()``).

The effect alphabet:

``WALL_CLOCK``
    reads the machine clock (``time.time`` and friends, ``datetime.now``)
``RNG``
    draws from an unseeded global RNG (``random.*``, ``numpy.random.*``)
``BLOCKING_IO``
    synchronous syscalls that stall an event loop (``os.fsync``,
    ``time.sleep``, ``subprocess.run``, ``Popen.wait`` …)
``JOURNAL_APPEND``
    writes a WAL/flight-journal record (``.intent(...)``, ``.recovery(...)``,
    or any resolved :class:`FlightRecorder` emitter)
``SPAWN``
    creates a subprocess (``subprocess.Popen``,
    ``asyncio.create_subprocess_exec``, ``os.fork`` …)
``RESPONSE_WRITE``
    writes bytes to a client (``StreamWriter.write``)
``SETTLEMENT``
    books contract revenue (``.settle(...)``, ``.settle_breach(...)``,
    ``.settle_abandoned(...)``)
``SHARED_MUTATION``
    assigns to ``self.<attr>`` (shared object state)

Detectors are *qualified-name* based wherever possible — the call graph
already rewrote ``proc.wait()`` / ``writer.write()`` into their
pseudo-qualified stdlib names — and fall back to terminal-attribute
matching only for the journal/settlement verbs, whose receivers are
duck-typed throughout ``repro.live``.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.static.callgraph import CallRecord, ProjectGraph, iter_body_nodes
from repro.analysis.static.modulemap import is_wall_clock_allowed, seeds_purity_hazard

WALL_CLOCK = "WALL_CLOCK"
RNG = "RNG"
BLOCKING_IO = "BLOCKING_IO"
JOURNAL_APPEND = "JOURNAL_APPEND"
SPAWN = "SPAWN"
RESPONSE_WRITE = "RESPONSE_WRITE"
SETTLEMENT = "SETTLEMENT"
SHARED_MUTATION = "SHARED_MUTATION"

ALL_EFFECTS = (
    WALL_CLOCK,
    RNG,
    BLOCKING_IO,
    JOURNAL_APPEND,
    SPAWN,
    RESPONSE_WRITE,
    SETTLEMENT,
    SHARED_MUTATION,
)

#: The clock/RNG purity effects DET001/DET002/OBS002/DET006 police.  Their
#: closure is *gated* (see :meth:`EffectIndex._propagate`); every other
#: effect propagates freely.
PURITY_EFFECTS = (WALL_CLOCK, RNG)

#: Qualified calls that read the machine clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Qualified-name prefixes whose *calls* constitute an RNG entry point.
RNG_PREFIXES = ("random.", "numpy.random.")

#: Qualified calls that block the calling thread.  ``subprocess.Popen``
#: itself is excluded (fork+exec returns promptly); its ``.wait()`` /
#: ``.communicate()`` pseudo-names carry the blocking effect instead.
BLOCKING_CALLS = frozenset(
    {
        "os.fsync",
        "os.fdatasync",
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen.wait",
        "subprocess.Popen.communicate",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)

#: Qualified calls that create a subprocess.
SPAWN_CALLS = frozenset(
    {
        "subprocess.Popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "asyncio.create_subprocess_exec",
        "asyncio.create_subprocess_shell",
        "os.fork",
        "os.posix_spawn",
        "os.spawnv",
    }
)

#: Terminal attributes that append a WAL/flight-journal record.  The
#: receivers are duck-typed (``self.flight``, a ``journal`` parameter…),
#: so attribute-name matching is the honest detector; ``intent`` and
#: ``recovery`` are the only verbs PR 8's WAL discipline treats as
#: journal-before-act markers.
JOURNAL_ATTRS = frozenset({"intent", "recovery"})

#: Terminal attributes that book contract revenue.
SETTLE_ATTRS = frozenset({"settle", "settle_breach", "settle_abandoned"})

#: Qualified calls that write a client response.
RESPONSE_CALLS = frozenset({"asyncio.StreamWriter.write"})


def purity_effect(qualified: Optional[str]) -> Optional[str]:
    """``WALL_CLOCK`` / ``RNG`` if calling *qualified* is one, else None.

    The analyzer's only clock/RNG detector: function bodies reach it
    through :func:`direct_effects_of_call`, module- and class-level code
    through the purity checker's file scan.
    """
    if qualified is None:
        return None
    if qualified in WALL_CLOCK_CALLS:
        return WALL_CLOCK
    if qualified.startswith(RNG_PREFIXES):
        return RNG
    return None


def direct_effects_of_call(record: CallRecord) -> dict[str, str]:
    """Effects a single call site triggers *directly*: effect → leaf label."""
    out: dict[str, str] = {}
    q = record.qualified
    if q is not None:
        purity = purity_effect(q)
        if purity is not None:
            out[purity] = f"{q}()"
        if q in BLOCKING_CALLS:
            out[BLOCKING_IO] = f"{q}()"
        if q in SPAWN_CALLS:
            out[SPAWN] = f"{q}()"
        if q in RESPONSE_CALLS:
            out[RESPONSE_WRITE] = f"{q}()"
    if record.terminal_attr in JOURNAL_ATTRS:
        out[JOURNAL_APPEND] = f".{record.terminal_attr}(...)"
    if record.terminal_attr in SETTLE_ATTRS:
        out[SETTLEMENT] = f".{record.terminal_attr}(...)"
    return out


class EffectIndex:
    """Direct + transitive effect sets for every function in a graph.

    ``direct[fid]`` is what the function's own body does.  ``closure[fid]``
    is what a *caller* of it answers for — everything reachable, except
    that the purity effects are gated by the project's scope policy
    (:mod:`~repro.analysis.static.modulemap`): a direct clock/RNG hit
    enters the closure only where no per-module rule already reports it
    at the source, and nothing in a wall-clock-allowed module
    (``repro.obs``, ``repro.live``) carries one — reaching the sanctioned
    boundary is fine, whatever lies behind it.
    """

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.direct: dict[str, set[str]] = {}
        self.closure: dict[str, set[str]] = {}
        #: (fid, effect) → witness: either a callee fid or a leaf label.
        self.via: dict[tuple[str, str], str] = {}
        self._compute_direct()
        self._propagate()

    def _compute_direct(self) -> None:
        for fid in sorted(self.graph.functions):
            effects: set[str] = set()
            for record in self.graph.calls.get(fid, []):
                for effect, leaf in sorted(direct_effects_of_call(record).items()):
                    effects.add(effect)
                    self.via.setdefault((fid, effect), leaf)
            node = self.graph.functions[fid].node
            for sub in iter_body_nodes(node):
                targets: list[ast.AST] = []
                if isinstance(sub, ast.Assign):
                    targets = list(sub.targets)
                elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                    targets = [sub.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        effects.add(SHARED_MUTATION)
                        self.via.setdefault(
                            (fid, SHARED_MUTATION), f"self.{target.attr} = ..."
                        )
            self.direct[fid] = effects
            module = self.graph.functions[fid].module
            self.closure[fid] = {
                effect
                for effect in effects
                if effect not in PURITY_EFFECTS or seeds_purity_hazard(effect, module)
            }

    def _propagate(self) -> None:
        order = sorted(self.graph.functions)
        # the sanctioned boundary: nothing in a wall-clock-allowed module
        # answers for a purity effect, so none crosses it to a caller
        gated = {
            fid: PURITY_EFFECTS if is_wall_clock_allowed(info.module) else ()
            for fid, info in self.graph.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for fid in order:
                mine = self.closure[fid]
                for callee in self.graph.edges.get(fid, []):
                    for effect in sorted(self.closure.get(callee, ())):
                        if effect not in mine and effect not in gated[fid]:
                            mine.add(effect)
                            self.via[(fid, effect)] = callee
                            changed = True

    def chain(self, fid: str, effect: str) -> str:
        """Human-readable witness path from *fid* to the effect's leaf."""
        parts: list[str] = []
        current: Optional[str] = fid
        seen: set[str] = set()
        while current is not None and current not in seen:
            seen.add(current)
            info = self.graph.functions.get(current)
            parts.append(info.qualname if info is not None else current)
            witness = self.via.get((current, effect))
            if witness is None:
                break
            if witness in self.graph.functions:
                current = witness
            else:
                parts.append(witness)
                break
        return " -> ".join(parts)
