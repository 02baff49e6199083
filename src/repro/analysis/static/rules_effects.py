"""Effect rules: DET001 / DET002 / OBS002 (clock and RNG purity), ASY002.

* **DET001 / DET002 / OBS002** are the three rows of
  :data:`~repro.analysis.static.modulemap.PURITY_SCOPES`, answered by
  :func:`check_purity` from one scan of the file's calls (module- and
  class-level code included).
* **ASY002** finds check-then-act races in the file's own ``async def``
  bodies in ``repro.live``: shared ``self`` state read in a branch
  test, an ``await`` opening the interleaving window, then a dependent
  mutation of the same attribute.

(Event-loop stalls and write-ahead order are checked where they happen,
at run time: the blocking-call guard in ``tests/live/conftest.py`` and
the audit's ``bid_before_intent`` violation.)
"""

from __future__ import annotations

import ast
from typing import Collection, Iterator

from repro.analysis.static.astutils import FileContext, iter_body_nodes, qualname
from repro.analysis.static.diagnostics import Diagnostic
from repro.analysis.static.effects import purity_effect
from repro.analysis.static.modulemap import PURITY_SCOPES, is_live_service


# ----------------------------------------------------------------------
# DET001 / DET002 / OBS002 — clock and RNG purity
# ----------------------------------------------------------------------

def check_purity(ctx: FileContext, codes: Collection[str]) -> list[Diagnostic]:
    """Every selected purity row that forbids an effect in this module,
    reported at the offending call, wherever in the file it sits."""
    scopes = [
        scope
        for scope in PURITY_SCOPES
        if scope.code in codes and scope.forbidden(ctx.module)
    ]
    if not scopes:
        return []
    findings = []
    for node in ctx.walk():
        if not isinstance(node, ast.Call):
            continue
        qualified = ctx.imports.resolve(node.func)
        effect = purity_effect(qualified)
        for scope in scopes:
            if effect == scope.effect:
                findings.append(
                    Diagnostic(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code=scope.code,
                        message=scope.message.format(
                            call=f"{qualified}()", module=ctx.module
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
    for func in ctx.walk():
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        events = sorted(_stmt_line_spans(func), key=lambda e: e[1])
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
                                "check-then-act race in async "
                                f"{qualname(func, ctx.parents)}: "
                                f"self.{attr} read on line {read_line}, an await "
                                "yields the loop, then self."
                                f"{attr} is mutated; re-check after the await or "
                                "mutate before it"
                            ),
                            module=ctx.module,
                        )
                    )
    return findings
