"""File discovery and the analysis run: one pass, file by file.

Each file is parsed once, the selected rule checkers run over it, then
its ``# repro: noqa`` suppressions apply.  Every rule sees one file at a
time.  Everything is deterministic: files are visited in sorted order
and diagnostics are reported in (path, line, col, code) order.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.static.astutils import FileContext
from repro.analysis.static.diagnostics import RULES, Diagnostic, sort_key
from repro.analysis.static.modulemap import module_name_for_path, module_pragma
from repro.analysis.static.noqa import apply_suppressions, collect_suppressions
from repro.analysis.static.rules_determinism import (
    check_det003,
    check_det004,
    check_det005,
)
from repro.analysis.static.rules_effects import check_asy002, check_purity
from repro.analysis.static.rules_hygiene import check_obs001


class LintUsageError(Exception):
    """Bad invocation (unknown rule, missing path) — exit code 2."""


#: Rule code → checker, for the rules that are one query each.  The three
#: purity codes (DET001/DET002/OBS002) are rows of one table and share
#: :func:`check_purity`, which takes the selection.
CHECKS: dict[str, Callable[[FileContext], list[Diagnostic]]] = {
    "DET003": check_det003,
    "DET004": check_det004,
    "DET005": check_det005,
    "ASY002": check_asy002,
    "OBS001": check_obs001,
}

#: Pseudo-codes emitted by the engine itself (not selectable, never
#: suppressible): parse failures and stale noqa comments.
PARSE_ERROR = "E999"
STALE_NOQA = "NQA000"


@dataclass
class LintRun:
    """The result of one analysis run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0

    @property
    def counts(self) -> dict[str, int]:
        """Findings per rule code, in report order."""
        by_code: dict[str, int] = {}
        for diag in self.diagnostics:
            by_code[diag.code] = by_code.get(diag.code, 0) + 1
        return dict(sorted(by_code.items()))

    @property
    def clean(self) -> bool:
        return not self.diagnostics


def resolve_selection(select: Optional[Iterable[str]]) -> tuple[str, ...]:
    """Validate a ``--select`` rule list against the catalog."""
    if select is None:
        return tuple(RULES)
    requested: list[str] = []
    for chunk in select:
        requested.extend(part.strip().upper() for part in chunk.split(",") if part.strip())
    unknown = [code for code in requested if code not in RULES]
    if unknown:
        known = ", ".join(RULES)
        raise LintUsageError(
            f"unknown rule(s) {', '.join(unknown)}; known rules: {known}"
        )
    if not requested:
        raise LintUsageError("--select given but no rule codes parsed")
    # preserve catalog order, drop duplicates
    return tuple(code for code in RULES if code in requested)


def discover_files(paths: Sequence[str]) -> list[str]:
    """Expand *paths* (files or directories) into sorted ``.py`` files."""
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__" and not d.startswith(".")
                )
                files.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    if not files:
        raise LintUsageError(f"no Python files found under: {', '.join(paths)}")
    return sorted(dict.fromkeys(files))


def _parse(path: str) -> tuple[str, Optional[ast.Module], Optional[Diagnostic]]:
    """Read and parse one file; syntax failures become E999 diagnostics."""
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return "", None, Diagnostic(
            path=path, line=1, col=0, code=PARSE_ERROR,
            message=f"cannot read file: {exc}",
        )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return source, None, Diagnostic(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            code=PARSE_ERROR,
            message=f"syntax error: {exc.msg}",
        )
    return source, tree, None


def analyze_file(
    path: str,
    source: str,
    tree: ast.Module,
    select: tuple[str, ...],
    strict_noqa: bool,
) -> list[Diagnostic]:
    """Run the selected rules over one parsed file and apply suppressions."""
    module = module_pragma(source) or module_name_for_path(path)
    ctx = FileContext(path=path, module=module, source=source, tree=tree)
    raw = check_purity(ctx, select)
    for code in select:
        if code in CHECKS:
            raw.extend(CHECKS[code](ctx))
    suppressions = collect_suppressions(source)
    kept = apply_suppressions(raw, suppressions)
    if strict_noqa:
        # a suppression is only provably stale when every rule it could
        # serve actually ran: a noqa naming an unselected code (or a
        # blanket noqa under a narrow --select) might be used by the
        # rules we skipped
        full_selection = set(select) >= set(RULES)
        for line in sorted(suppressions):
            suppression = suppressions[line]
            checkable = (
                full_selection
                if not suppression.codes
                else suppression.codes.issubset(select)
            )
            if checkable and not suppression.used:
                kept.append(
                    Diagnostic(
                        path=path,
                        line=line,
                        col=0,
                        code=STALE_NOQA,
                        message=(
                            "noqa comment suppresses nothing"
                            + (
                                f" (codes: {', '.join(sorted(suppression.codes))})"
                                if suppression.codes
                                else ""
                            )
                        ),
                        module=module,
                    )
                )
    return kept


def analyze_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    strict_noqa: bool = False,
) -> LintRun:
    """Analyze every Python file under *paths*; the ``repro lint`` core."""
    selection = resolve_selection(select)
    files = discover_files(paths)

    run = LintRun(files_checked=len(files))
    for path in files:
        source, tree, failure = _parse(path)
        if failure is not None:
            run.diagnostics.append(failure)
            continue
        assert tree is not None
        run.diagnostics.extend(analyze_file(path, source, tree, selection, strict_noqa))
    run.diagnostics.sort(key=sort_key)
    return run
