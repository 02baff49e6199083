"""Determinism rules DET003–DET005: the per-file, syntactic ones.

(Clock and RNG purity — DET001, DET002, DET006 — are effect queries and
live in :mod:`repro.analysis.static.rules_effects`.)  Each checker takes
a :class:`~repro.analysis.static.astutils.FileContext` and returns
diagnostics; scoping (which modules a rule applies to) is decided here
via :mod:`repro.analysis.static.modulemap` so the engine stays
policy-free.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.static.astutils import FileContext, enclosing_class
from repro.analysis.static.diagnostics import Diagnostic
from repro.analysis.static.modulemap import (
    EVENT_QUEUE_MODULE,
    is_hot_path,
    is_sim_path,
)

# ----------------------------------------------------------------------
# DET003 — unordered iteration in hot paths
# ----------------------------------------------------------------------

_SET_RETURNING_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)
_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})


class _SetBindings(ast.NodeVisitor):
    """Collects names (and ``self.<attr>`` per class) bound to sets in a file.

    Annotation-derived bindings are recorded immediately; value-derived
    ones (``survivors = eligible - stale``) are deferred and resolved to
    a fixpoint by :meth:`propagate`, so chains of set-producing
    assignments are followed.
    """

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.self_attrs: dict[str, set[str]] = {}  # class name -> attrs
        self._class_stack: list[str] = []
        # (target, value expr, enclosing class name) awaiting resolution
        self._deferred: list[tuple[ast.AST, ast.AST, Optional[str]]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _record_target(self, target: ast.AST, class_name: Optional[str]) -> bool:
        if isinstance(target, ast.Name):
            if target.id in self.names:
                return False
            self.names.add(target.id)
            return True
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and class_name is not None
        ):
            attrs = self.self_attrs.setdefault(class_name, set())
            if target.attr in attrs:
                return False
            attrs.add(target.attr)
            return True
        return False

    def _current_class(self) -> Optional[str]:
        return self._class_stack[-1] if self._class_stack else None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._deferred.append((target, node.value, self._current_class()))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _is_set_annotation(node.annotation):
            self._record_target(node.target, self._current_class())
        elif node.value is not None:
            self._deferred.append((node.target, node.value, self._current_class()))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)

    def _visit_func(self, node: ast.AST) -> None:
        for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]:
            if arg.annotation is not None and _is_set_annotation(arg.annotation):
                self.names.add(arg.arg)
        self.generic_visit(node)

    def propagate(self) -> None:
        """Resolve deferred value-derived bindings to a fixpoint."""
        changed = True
        while changed:
            changed = False
            for target, value, class_name in self._deferred:
                if _is_set_expr(value, self, class_name) and self._record_target(
                    target, class_name
                ):
                    changed = True


def _is_set_annotation(annotation: ast.AST) -> bool:
    """``set[...]`` / ``Set[...]`` / ``frozenset`` / ``typing.AbstractSet[...]``."""
    node = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: crude but effective containment test
        return any(token in node.value for token in ("set[", "Set[", "frozenset", "AbstractSet"))
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


def _is_dict_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "items", "values")
        and not node.args
        and not node.keywords
    )


def _is_set_expr(
    node: ast.AST,
    bindings: Optional[_SetBindings],
    current_class: Optional[str],
) -> bool:
    """Conservatively: does *node* evaluate to a set / frozenset?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_RETURNING_METHODS
            and _is_set_expr(node.func.value, bindings, current_class)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # set algebra; dict views under these operators also yield sets
        left_setlike = _is_set_expr(node.left, bindings, current_class) or _is_dict_view(node.left)
        right_setlike = _is_set_expr(node.right, bindings, current_class) or _is_dict_view(
            node.right
        )
        return left_setlike and right_setlike
    if bindings is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in bindings.names
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and current_class is not None
    ):
        return node.attr in bindings.self_attrs.get(current_class, set())
    return False


def check_det003(ctx: FileContext) -> list[Diagnostic]:
    """Iteration over sets in sim/scheduling/market hot paths.

    Set iteration order is not part of the language contract the project
    relies on (unlike dict insertion order); in a scheduler it decides
    tie-breaks.  Wrap the iterable in ``sorted(...)`` (any deterministic
    key) to fix.
    """
    if not is_hot_path(ctx.module):
        return []
    bindings = _SetBindings()
    bindings.visit(ctx.tree)
    bindings.propagate()
    findings = []

    def flag(expr: ast.AST) -> None:
        current_class = enclosing_class(expr, ctx.parents)
        class_name = current_class.name if current_class is not None else None
        if _is_set_expr(expr, bindings, class_name):
            findings.append(
                Diagnostic(
                    path=ctx.path,
                    line=expr.lineno,
                    col=expr.col_offset,
                    code="DET003",
                    message=(
                        "iteration over a set in a hot-path module; wrap in "
                        "sorted(...) to pin the order"
                    ),
                    module=ctx.module,
                )
            )

    for node in ctx.walk():
        if isinstance(node, (ast.For, ast.AsyncFor)):
            flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                flag(generator.iter)
    return findings


# ----------------------------------------------------------------------
# DET004 — float equality on sim-time expressions
# ----------------------------------------------------------------------

#: Bare names that denote a simulated instant.
_TIME_NAMES = frozenset({"now", "sim_time", "sim_now", "t_now"})
#: Terminal attribute names that denote a simulated instant (``sim.now``,
#: ``event.time``, ``bid.expires_at``, ``task.deadline`` …).
_TIME_ATTRS = frozenset(
    {
        "now",
        "time",
        "expires_at",
        "deadline",
        "start_time",
        "finish_time",
        "end_time",
        "arrival_time",
        "release_time",
        "completion_time",
    }
)


def _is_time_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _TIME_NAMES
    if isinstance(node, ast.Attribute):
        # `self.now`, `sim.now`, `event.time` — but NOT `time.time` style
        # module attributes, which DET002 owns
        return node.attr in _TIME_ATTRS and not (
            isinstance(node.value, ast.Name) and node.value.id in ("time", "datetime")
        )
    if isinstance(node, ast.BinOp):
        return _is_time_expr(node.left) or _is_time_expr(node.right)
    return False


def check_det004(ctx: FileContext) -> list[Diagnostic]:
    """``==`` / ``!=`` between floats where one side is a sim-time expression.

    Comparisons against ``None`` are exempt (a different bug class, and
    ruff's E711 already polices the idiom).
    """
    if not is_sim_path(ctx.module):
        return []
    findings = []
    for node in ctx.walk():
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if any(isinstance(side, ast.Constant) and side.value is None for side in (left, right)):
                continue
            if _is_time_expr(left) or _is_time_expr(right):
                findings.append(
                    Diagnostic(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code="DET004",
                        message=(
                            "exact float equality on a sim-time expression; "
                            "compare with a tolerance or restructure around "
                            "event identity"
                        ),
                        module=ctx.module,
                    )
                )
                break  # one diagnostic per comparison chain
    return findings


# ----------------------------------------------------------------------
# DET005 — raw heapq in the sim package
# ----------------------------------------------------------------------

def check_det005(ctx: FileContext) -> list[Diagnostic]:
    """Direct ``heapq`` use in ``repro.sim`` outside the EventQueue.

    ``repro.sim.queue`` owns every heap in the kernel; its sorted lane
    and lazy-cancellation counters are invariants a raw
    ``heappush``/``heappop`` elsewhere in the package would silently
    bypass.  Flags both calls into ``heapq.*`` (however
    imported) and the imports themselves, so a heap smuggled in via
    ``from heapq import heappush`` is caught even before first use.
    """
    module = ctx.module
    in_scope = (module == "repro.sim" or module.startswith("repro.sim.")) and (
        module != EVENT_QUEUE_MODULE
    )
    if not in_scope:
        return []
    findings = []

    def diag(node: ast.AST, what: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset,
            code="DET005",
            message=(
                f"{what} in sim module {module}; heap state belongs to "
                f"EventQueue ({EVENT_QUEUE_MODULE}) — extend its API instead"
            ),
            module=module,
        )

    for node in ctx.walk():
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "heapq" or alias.name.startswith("heapq."):
                    findings.append(diag(node, f"import of {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "heapq":
                names = ", ".join(alias.name for alias in node.names)
                findings.append(diag(node, f"import from heapq ({names})"))
        elif isinstance(node, ast.Call):
            qualified = ctx.imports.resolve(node.func)
            if qualified is not None and (
                qualified == "heapq" or qualified.startswith("heapq.")
            ):
                findings.append(diag(node, f"direct call {qualified}()"))
    return findings
