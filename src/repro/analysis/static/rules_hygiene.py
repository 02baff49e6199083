"""Invariant-hygiene rules CFG001, EXP001, OBS001, OBS002."""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.static.astutils import (
    FileContext,
    enclosing,
    enclosing_class,
    enclosing_function,
    nested_function_names,
)
from repro.analysis.static.diagnostics import Diagnostic
from repro.analysis.static.modulemap import (
    is_print_allowed,
    is_repro_library,
    is_timestamp_passive,
)

# ----------------------------------------------------------------------
# CFG001 — frozen-config mutation
# ----------------------------------------------------------------------

#: Methods of a frozen dataclass in which ``object.__setattr__(self, …)``
#: is the sanctioned idiom (field normalization at construction time).
_CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def frozen_dataclass_names(tree: ast.AST) -> set[str]:
    """Class names decorated ``@dataclass(frozen=True)`` in *tree*.

    Used by the engine's project-wide pre-pass; matching is by bare class
    name across files, which is the right trade-off for a single-project
    linter (config classes have distinctive names like
    ``ResilienceConfig``).
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            callee = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if callee != "dataclass":
                continue
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    names.add(node.name)
    return names


def _frozen_typed_names(ctx: FileContext) -> set[str]:
    """Local names provably holding a frozen-dataclass instance.

    Covers direct construction (``cfg = ResilienceConfig(...)``) and
    annotations (``cfg: ResilienceConfig``, function parameters
    included).  Attribute-typed bindings (``self.cfg``) are out of scope
    — the ``object.__setattr__`` arm catches the mutations that matter
    there.
    """
    frozen = ctx.frozen_classes
    names: set[str] = set()

    def type_name(annotation: Optional[ast.AST]) -> Optional[str]:
        node = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.strip()
        if isinstance(node, ast.Subscript):  # Optional[X] / Final[X]
            node = node.slice
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = node.value.func
            callee_name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute) else None
            )
            if callee_name in frozen:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if type_name(node.annotation) in frozen:
                names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]:
                if arg.annotation is not None and type_name(arg.annotation) in frozen:
                    names.add(arg.arg)
    return names


def check_cfg001(ctx: FileContext) -> list[Diagnostic]:
    """Mutation of frozen config dataclasses outside their constructors.

    Two arms:

    * ``object.__setattr__(x, ...)`` anywhere except inside
      ``__init__`` / ``__post_init__`` / ``__new__`` of a class that is
      itself a frozen dataclass — the only place the bypass is
      legitimate.
    * plain ``x.attr = value`` where ``x`` is locally known to hold a
      frozen-dataclass instance (would raise at runtime; flagged
      statically so the test suite never has to reach the line).
    """
    if not is_repro_library(ctx.module):
        return []
    findings = []
    frozen_locals = _frozen_typed_names(ctx) if ctx.frozen_classes else set()
    for node in ctx.walk():
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                owner = enclosing_class(node, ctx.parents)
                method = enclosing_function(node, ctx.parents)
                sanctioned = (
                    owner is not None
                    and owner.name in ctx.frozen_classes
                    and method is not None
                    and getattr(method, "name", None) in _CONSTRUCTOR_METHODS
                )
                if not sanctioned:
                    findings.append(
                        Diagnostic(
                            path=ctx.path,
                            line=node.lineno,
                            col=node.col_offset,
                            code="CFG001",
                            message=(
                                "object.__setattr__ outside a frozen dataclass "
                                "constructor defeats config immutability; build "
                                "a new config with dataclasses.replace instead"
                            ),
                            module=ctx.module,
                        )
                    )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in frozen_locals
                ):
                    findings.append(
                        Diagnostic(
                            path=ctx.path,
                            line=target.lineno,
                            col=target.col_offset,
                            code="CFG001",
                            message=(
                                f"attribute assignment on frozen config "
                                f"{target.value.id!r}; use dataclasses.replace"
                            ),
                            module=ctx.module,
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# EXP001 — unpicklable experiment cells
# ----------------------------------------------------------------------


def _executor_names(tree: ast.AST) -> set[str]:
    """Names bound to a ``CellExecutor`` in *tree*.

    Covers ``with CellExecutor(...) as ex:``, ``ex = CellExecutor(...)``
    and parameters annotated ``: CellExecutor``.
    """
    names: set[str] = set()

    def is_cell_executor_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        callee = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        return callee == "CellExecutor"

    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if is_cell_executor_call(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
        elif isinstance(node, ast.Assign) and is_cell_executor_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]:
                annotation = arg.annotation
                if isinstance(annotation, ast.Constant):
                    annotated = str(annotation.value).strip().strip('"')
                elif isinstance(annotation, ast.Name):
                    annotated = annotation.id
                elif isinstance(annotation, ast.Attribute):
                    annotated = annotation.attr
                else:
                    annotated = None
                if annotated == "CellExecutor":
                    names.add(arg.arg)
    return names


def check_exp001(ctx: FileContext) -> list[Diagnostic]:
    """Lambdas / nested functions submitted to a :class:`CellExecutor`.

    Cells execute in a process pool at ``workers > 1``: the callable and
    every argument must pickle.  Module-level functions pickle by
    reference; lambdas and closures do not — and worse, they *work* at
    ``workers=1`` (inline mode), so the hazard only detonates in the
    configuration CI exercises least.
    """
    executors = _executor_names(ctx.tree)
    if not executors:
        return []
    nested = nested_function_names(ctx.tree)
    findings = []
    for node in ctx.walk():
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in executors
        ):
            continue
        hazards: list[tuple[ast.AST, str]] = []
        if node.args:
            fn = node.args[0]
            if isinstance(fn, ast.Lambda):
                hazards.append((fn, "lambda as the cell callable"))
            elif isinstance(fn, ast.Name) and fn.id in nested:
                hazards.append(
                    (fn, f"nested function {fn.id!r} as the cell callable")
                )
        for arg in [*node.args[1:], *[kw.value for kw in node.keywords]]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    hazards.append((sub, "lambda in cell arguments"))
                elif isinstance(sub, ast.Name) and sub.id in nested:
                    hazards.append((sub, f"nested function {sub.id!r} in cell arguments"))
        for offender, reason in hazards:
            findings.append(
                Diagnostic(
                    path=ctx.path,
                    line=offender.lineno,
                    col=offender.col_offset,
                    code="EXP001",
                    message=(
                        f"{reason}: cells must be module-level callables with "
                        "picklable arguments (breaks at workers > 1)"
                    ),
                    module=ctx.module,
                )
            )
    return findings


# ----------------------------------------------------------------------
# OBS001 — print in library code
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# OBS002 — clock reads in timestamp-passive observability modules
# ----------------------------------------------------------------------


def check_obs002(ctx: FileContext) -> list[Diagnostic]:
    """Wall-clock reads in the recorder/audit/replay pipeline.

    These modules sit *inside* the wall-clock-allowlisted ``repro.obs``
    umbrella (DET002 does not apply there), yet their contract is
    stricter than the sim path's: they must not read any clock at all.
    Timestamps arrive as arguments from the caller's ``clock.now``, so a
    recording replays identically in either clock domain.
    """
    from repro.analysis.static.rules_determinism import _WALL_CLOCK_CALLS

    if not is_timestamp_passive(ctx.module):
        return []
    findings = []
    for node in ctx.walk():
        if not isinstance(node, ast.Call):
            continue
        qualified = ctx.imports.resolve(node.func)
        if qualified in _WALL_CLOCK_CALLS:
            findings.append(
                Diagnostic(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    code="OBS002",
                    message=(
                        f"wall-clock read {qualified}() in timestamp-passive "
                        f"module {ctx.module}; accept t as a parameter from "
                        "the caller's clock.now (wall time belongs to "
                        "repro.live)"
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
