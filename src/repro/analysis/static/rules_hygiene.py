"""Invariant-hygiene rule OBS001 (print in library code)."""

from __future__ import annotations

import ast

from repro.analysis.static.astutils import FileContext, enclosing
from repro.analysis.static.diagnostics import Diagnostic
from repro.analysis.static.modulemap import is_print_allowed


def check_obs001(ctx: FileContext) -> list[Diagnostic]:
    """Bare ``print`` calls in library modules.

    CLI / analysis-rendering layers are allowlisted — print *is*
    their output channel.  ``if __name__ == "__main__"`` demo blocks are
    exempt too: they only run when the module is executed as a script.
    """
    if is_print_allowed(ctx.module):
        return []
    findings = []
    for node in ctx.walk():
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            continue
        if _in_main_guard(node, ctx):
            continue
        findings.append(
            Diagnostic(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                code="OBS001",
                message=(
                    "print() in library code; report through the metrics "
                    "registry / span exporters (repro.obs) or logging"
                ),
                module=ctx.module,
            )
        )
    return findings


def _in_main_guard(node: ast.AST, ctx: FileContext) -> bool:
    guard = enclosing(node, ctx.parents, (ast.If,))
    while guard is not None:
        test = guard.test
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
        ):
            return True
        guard = enclosing(guard, ctx.parents, (ast.If,))
    return False
