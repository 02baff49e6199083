"""Interprocedural rules DET006 / ASY001 / ASY002 / WAL001.

These checkers consume the project-wide :class:`ProjectContext`
(call graph + effect index) the engine builds in pass 1.  They are the
cross-module counterparts of the flow-insensitive determinism rules:

* **DET006** closes the DET001/DET002 blind spot — sim-path code calling
  a helper *in another module* that reads the wall clock or draws from a
  global RNG.
* **ASY001** finds blocking syscalls reachable from ``async def`` bodies
  in ``repro.live`` (event-loop stalls).
* **ASY002** finds check-then-act races: shared ``self`` state read in a
  branch test, an ``await`` opening the interleaving window, then a
  dependent mutation of the same attribute.
* **WAL001** enforces the journal-before-act discipline from PR 8: in
  ``repro.live`` and the site code it settles through, a spawn /
  client-response write / settlement must be preceded (lexically, within
  the function) by a journal-append intent.

All four under-approximate on purpose: an unresolved call contributes no
edge, so a finding always names a concrete witness chain.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.static.astutils import FileContext
from repro.analysis.static.callgraph import FunctionInfo, iter_body_nodes
from repro.analysis.static.diagnostics import Diagnostic
from repro.analysis.static.effects import (
    BLOCKING_IO,
    JOURNAL_APPEND,
    RESPONSE_WRITE,
    RNG,
    SETTLEMENT,
    SPAWN,
    WALL_CLOCK,
    direct_effects_of_call,
)
from repro.analysis.static.modulemap import (
    is_journaled_act_scope,
    is_live_service,
    is_repro_library,
    is_sim_path,
    is_wall_clock_allowed,
)


def _file_functions(ctx: FileContext) -> list[FunctionInfo]:
    project = ctx.project
    if project is None:
        return []
    graph = project.graph
    return [graph.functions[fid] for fid in graph.functions_by_path.get(ctx.path, [])]


# ----------------------------------------------------------------------
# DET006 — sim-path code transitively reaching wall-clock / RNG effects
# ----------------------------------------------------------------------

_HAZARDS = (WALL_CLOCK, RNG)
_HAZARD_LABEL = {WALL_CLOCK: "wall-clock", RNG: "unseeded-RNG"}


def _det006_closure(ctx: FileContext) -> dict[str, set[str]]:
    """fid → hazard effects it reaches through *unsanctioned* modules.

    Seeds are direct hazards that the single-module rules do NOT already
    own: a wall-clock read in a module that is neither sim-path (DET002's
    beat) nor allowlisted, or an RNG draw outside the ``repro`` package
    (DET001's beat).  Propagation is cut at wall-clock-allowed modules —
    reaching ``repro.obs`` is sanctioned, whatever ``repro.obs`` does
    downstream.  Cached on the ProjectContext (one computation per run).
    """
    project = ctx.project
    assert project is not None
    cached = project.caches.get("det006")
    if cached is not None:
        return cached
    graph, effects = project.graph, project.effects
    hazard: dict[str, set[str]] = {}
    for fid in sorted(graph.functions):
        info = graph.functions[fid]
        direct = effects.direct[fid]
        seeds: set[str] = set()
        if (
            WALL_CLOCK in direct
            and not is_sim_path(info.module)
            and not is_wall_clock_allowed(info.module)
        ):
            seeds.add(WALL_CLOCK)
        if RNG in direct and not is_repro_library(info.module):
            seeds.add(RNG)
        if seeds:
            hazard[fid] = seeds
    changed = True
    while changed:
        changed = False
        for fid in sorted(graph.functions):
            if is_wall_clock_allowed(graph.functions[fid].module):
                continue  # sanctioned boundary: do not carry hazards across
            mine = hazard.setdefault(fid, set())
            for callee in graph.edges.get(fid, []):
                callee_info = graph.functions.get(callee)
                if callee_info is None:
                    continue
                if is_wall_clock_allowed(callee_info.module):
                    continue
                incoming = hazard.get(callee, set()) - mine
                if incoming:
                    for effect in sorted(incoming):
                        mine.add(effect)
                        project.hazard_via.setdefault((fid, effect), callee)
                    changed = True
    project.caches["det006"] = hazard
    return hazard


def _hazard_chain(ctx: FileContext, fid: str, effect: str) -> str:
    """Witness chain through the hazard closure (falls back to effect via)."""
    project = ctx.project
    assert project is not None
    graph, effects = project.graph, project.effects
    parts: list[str] = []
    current: Optional[str] = fid
    seen: set[str] = set()
    while current is not None and current not in seen:
        seen.add(current)
        info = graph.functions.get(current)
        parts.append(info.qualname if info is not None else current)
        witness = project.hazard_via.get((current, effect))
        if witness is None:
            # seed function: finish with the direct leaf label
            leaf = effects.via.get((current, effect))
            if leaf is not None and leaf not in graph.functions:
                parts.append(leaf)
            break
        current = witness
    return " -> ".join(parts)


def check_det006(ctx: FileContext) -> list[Diagnostic]:
    """Sim-path call sites whose resolved callee reaches a hazard."""
    if ctx.project is None or not is_sim_path(ctx.module):
        return []
    hazard = _det006_closure(ctx)
    graph = ctx.project.graph
    findings = []
    for func in _file_functions(ctx):
        for record in graph.calls.get(func.fid, []):
            if record.target is None:
                continue
            for effect in _HAZARDS:
                if effect not in hazard.get(record.target, ()):
                    continue
                callee = graph.functions[record.target]
                chain = _hazard_chain(ctx, record.target, effect)
                findings.append(
                    Diagnostic(
                        path=ctx.path,
                        line=record.node.lineno,
                        col=record.node.col_offset,
                        code="DET006",
                        message=(
                            f"sim-path function {func.qualname} reaches a "
                            f"{_HAZARD_LABEL[effect]} effect via "
                            f"{callee.module}: {chain}"
                        ),
                        module=ctx.module,
                    )
                )
    return findings


# ----------------------------------------------------------------------
# ASY001 — blocking effects reachable from async def bodies in repro.live
# ----------------------------------------------------------------------

def check_asy001(ctx: FileContext) -> list[Diagnostic]:
    """Event-loop stalls: blocking syscalls on the live service's loop.

    Reports at the offending call site inside the ``async def``: either a
    direct blocking call, or a call into a *synchronous* function whose
    effect closure contains ``BLOCKING_IO``.  Calls into other ``async``
    functions are skipped — their own bodies get checked at their own
    call sites, so the finding lands where the blocking actually enters
    the loop.
    """
    project = ctx.project
    if project is None or not is_live_service(ctx.module):
        return []
    graph, effects = project.graph, project.effects
    findings = []
    for func in _file_functions(ctx):
        if not func.is_async:
            continue
        for record in graph.calls.get(func.fid, []):
            direct = direct_effects_of_call(record)
            if BLOCKING_IO in direct:
                detail = direct[BLOCKING_IO]
            elif (
                record.target is not None
                and not graph.functions[record.target].is_async
                and BLOCKING_IO in effects.closure[record.target]
            ):
                detail = effects.chain(record.target, BLOCKING_IO)
            else:
                continue
            findings.append(
                Diagnostic(
                    path=ctx.path,
                    line=record.node.lineno,
                    col=record.node.col_offset,
                    code="ASY001",
                    message=(
                        f"blocking call on the event loop in async "
                        f"{func.qualname}: {detail}; offload with "
                        "run_in_executor or restructure"
                    ),
                    module=ctx.module,
                )
            )
    return findings


# ----------------------------------------------------------------------
# ASY002 — check-then-act races across await points
# ----------------------------------------------------------------------

def _stmt_line_spans(node: ast.AST) -> Iterator[tuple[str, int, str]]:
    """(kind, line, attr) events inside one async function body.

    kind is ``read`` (``self.X`` inside an ``if``/``while`` test),
    ``await`` (any Await / async-for / async-with), or ``write``
    (Assign/AugAssign target ``self.X``).
    """
    for sub in iter_body_nodes(node):
        if isinstance(sub, (ast.If, ast.While)):
            for inner in ast.walk(sub.test):
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    yield ("read", inner.lineno, inner.attr)
        elif isinstance(sub, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            yield ("await", sub.lineno, "")
        targets: list[ast.AST] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, ast.AugAssign):
            targets = [sub.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield ("write", target.lineno, target.attr)


def check_asy002(ctx: FileContext) -> list[Diagnostic]:
    """Read of ``self.X`` in a test, an ``await``, then a write of ``self.X``.

    The await yields the loop: another task can observe/mutate the same
    attribute between the check and the act.  Purely intraprocedural and
    line-ordered — a mutation *before* the first await is fine.
    """
    project = ctx.project
    if project is None or not is_live_service(ctx.module):
        return []
    findings = []
    for func in _file_functions(ctx):
        if not func.is_async:
            continue
        events = sorted(_stmt_line_spans(func.node), key=lambda e: e[1])
        await_lines = [line for kind, line, _ in events if kind == "await"]
        if not await_lines:
            continue
        reads: dict[str, int] = {}
        flagged: set[tuple[str, int]] = set()
        for kind, line, attr in events:
            if kind == "read":
                reads.setdefault(attr, line)
            elif kind == "write" and attr in reads:
                read_line = reads[attr]
                if any(read_line < a < line for a in await_lines) and (
                    (attr, line) not in flagged
                ):
                    flagged.add((attr, line))
                    findings.append(
                        Diagnostic(
                            path=ctx.path,
                            line=line,
                            col=0,
                            code="ASY002",
                            message=(
                                f"check-then-act race in async {func.qualname}: "
                                f"self.{attr} read on line {read_line}, an await "
                                "yields the loop, then self."
                                f"{attr} is mutated; re-check after the await or "
                                "mutate before it"
                            ),
                            module=ctx.module,
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# WAL001 — journal-before-act on the live service's path
# ----------------------------------------------------------------------

_ACT_LABEL = {
    SPAWN: "subprocess spawn",
    RESPONSE_WRITE: "client response write",
    SETTLEMENT: "contract settlement",
}

_BLOCK_FIELDS = ("body", "orelse", "finalbody")


def _walk_no_defs(node: ast.AST) -> Iterator[ast.AST]:
    """DFS over *node* (inclusive) that never enters nested def/class bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _header_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Nodes evaluated by *stmt* itself, excluding nested blocks and defs."""
    for _field, value in ast.iter_fields(stmt):
        values = value if isinstance(value, list) else [value]
        for item in values:
            if not isinstance(item, ast.AST):
                continue
            if isinstance(item, (ast.stmt, ast.excepthandler)):
                continue
            yield from _walk_no_defs(item)


def _blocks_of(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    for name in _BLOCK_FIELDS:
        block = getattr(stmt, name, None)
        if block:
            yield block
    for handler in getattr(stmt, "handlers", []) or []:
        if handler.body:
            yield handler.body


class _WalChecker:
    """Walks one function body tracking the journaled-yet flag."""

    def __init__(self, ctx: FileContext, func: FunctionInfo) -> None:
        self.ctx = ctx
        self.func = func
        project = ctx.project
        assert project is not None
        self.graph = project.graph
        self.effects = project.effects
        self.records = {
            id(record.node): record for record in self.graph.calls.get(func.fid, [])
        }
        self.findings: list[Diagnostic] = []

    def _call_journals(self, call: ast.Call) -> bool:
        record = self.records.get(id(call))
        if record is None:
            return False
        if JOURNAL_APPEND in direct_effects_of_call(record):
            return True
        return (
            record.target is not None
            and JOURNAL_APPEND in self.effects.closure[record.target]
        )

    def _subtree_journals(self, node: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Call) and self._call_journals(sub)
            for sub in ast.walk(node)
        )

    def _acts_in(self, nodes: list[ast.AST]) -> list[tuple[ast.Call, str]]:
        acts = []
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            record = self.records.get(id(node))
            if record is None:
                continue
            direct = direct_effects_of_call(record)
            for effect in (SPAWN, RESPONSE_WRITE, SETTLEMENT):
                if effect in direct:
                    acts.append((node, effect))
        return acts

    def run(self) -> None:
        node = self.func.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._process(node.body, journaled=False)

    def _process(self, stmts: list[ast.stmt], journaled: bool) -> bool:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            header = list(_header_exprs(stmt))
            acts = self._acts_in(header)
            if acts and not journaled and not self._subtree_journals(stmt):
                for call, effect in acts:
                    self.findings.append(
                        Diagnostic(
                            path=self.ctx.path,
                            line=call.lineno,
                            col=call.col_offset,
                            code="WAL001",
                            message=(
                                f"{_ACT_LABEL[effect]} in {self.func.qualname} "
                                "with no preceding journal append on this path; "
                                "write the intent record (flight.intent/"
                                "recovery) before acting"
                            ),
                            module=self.ctx.module,
                        )
                    )
            if any(
                isinstance(item, ast.Call) and self._call_journals(item)
                for item in header
            ):
                journaled = True
            for block in _blocks_of(stmt):
                journaled = self._process(block, journaled) or journaled
        return journaled


def check_wal001(ctx: FileContext) -> list[Diagnostic]:
    """Journal-before-act: spawn/response/settlement needs a prior intent.

    Lexical, intraprocedural, and optimistic across branches: a journal
    append inside ``if self.flight is not None:`` counts for everything
    after the guard (strict dominance would punish the standard
    optional-recorder idiom).  The soundness trade-offs are documented in
    docs/static_analysis.md.
    """
    if ctx.project is None or not is_journaled_act_scope(ctx.module):
        return []
    findings = []
    for func in _file_functions(ctx):
        checker = _WalChecker(ctx, func)
        checker.run()
        findings.extend(checker.findings)
    return findings
