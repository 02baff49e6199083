"""Effect rules: DET001 / DET002 / OBS002 / DET006, ASY001, ASY002, WAL001.

These checkers consume the project-wide :class:`ProjectContext`
(call graph + effect index) the engine builds in pass 1:

* **DET001 / DET002 / OBS002 / DET006** — clock and RNG purity — are the
  four rows of :data:`~repro.analysis.static.modulemap.PURITY_SCOPES`,
  answered by :func:`check_purity`: the direct rows from one scan of the
  file's calls (module- and class-level code included), DET006 from the
  gated effect closure of each resolved callee.
* **ASY001** finds blocking syscalls reachable from ``async def`` bodies
  in ``repro.live`` (event-loop stalls).
* **ASY002** finds check-then-act races: shared ``self`` state read in a
  branch test, an ``await`` opening the interleaving window, then a
  dependent mutation of the same attribute.
* **WAL001** enforces the journal-before-act discipline from PR 8: in
  ``repro.live`` and the site code it settles through, a spawn /
  client-response write / settlement must be preceded (lexically, within
  the function) by a journal-append intent.

The interprocedural ones under-approximate on purpose: an unresolved
call contributes no edge, so a finding always names a concrete witness
chain.
"""

from __future__ import annotations

import ast
from typing import Collection, Iterator

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
    purity_effect,
)
from repro.analysis.static.modulemap import (
    PURITY_SCOPES,
    PurityScope,
    is_journaled_act_scope,
    is_live_service,
)


def _file_functions(ctx: FileContext) -> list[FunctionInfo]:
    graph = ctx.project.graph
    return [graph.functions[fid] for fid in graph.functions_by_path.get(ctx.path, [])]


# ----------------------------------------------------------------------
# DET001 / DET002 / OBS002 / DET006 — clock and RNG purity
# ----------------------------------------------------------------------

_HAZARD_LABEL = {WALL_CLOCK: "wall-clock", RNG: "unseeded-RNG"}


def check_purity(ctx: FileContext, codes: Collection[str]) -> list[Diagnostic]:
    """Every selected purity row that forbids an effect in this module.

    Direct rows report the offending call itself, wherever in the file
    it sits.  The transitive row (DET006) reports sim-path call sites
    whose resolved callee carries the effect in its closure — which the
    effect index gates at the sanctioned boundary and seeds only with
    hits no direct row already owns, so a finding here is never a
    duplicate of one at the source.
    """
    scopes = [
        scope
        for scope in PURITY_SCOPES
        if scope.code in codes and scope.forbidden(ctx.module)
    ]
    findings = []

    def report(scope: PurityScope, node: ast.AST, **fields: str) -> None:
        findings.append(
            Diagnostic(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                code=scope.code,
                message=scope.message.format(**fields),
                module=ctx.module,
            )
        )

    direct = [scope for scope in scopes if not scope.transitive]
    if direct:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.imports.resolve(node.func)
            effect = purity_effect(qualified)
            for scope in direct:
                if effect in scope.effects:
                    report(scope, node, call=f"{qualified}()", module=ctx.module)

    graph, effects = ctx.project.graph, ctx.project.effects
    for scope in scopes:
        if not scope.transitive:
            continue
        for func in _file_functions(ctx):
            for record in graph.calls.get(func.fid, []):
                if record.target is None:
                    continue
                for effect in scope.effects:
                    if effect in effects.closure[record.target]:
                        report(
                            scope,
                            record.node,
                            function=func.qualname,
                            hazard=_HAZARD_LABEL[effect],
                            via=graph.functions[record.target].module,
                            chain=effects.chain(record.target, effect),
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
    if not is_live_service(ctx.module):
        return []
    graph, effects = ctx.project.graph, ctx.project.effects
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
    if not is_live_service(ctx.module):
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
        self.graph = ctx.project.graph
        self.effects = ctx.project.effects
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
    if not is_journaled_act_scope(ctx.module):
        return []
    findings = []
    for func in _file_functions(ctx):
        checker = _WalChecker(ctx, func)
        checker.run()
        findings.extend(checker.findings)
    return findings
