"""Shared AST plumbing for the rule modules.

Nothing here knows about specific rules: just parent links, lexical
scopes, import-alias resolution (``np.random.default_rng`` →
``numpy.random.default_rng``), function bodies, and the per-file
:class:`FileContext` bundle every checker receives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional


def build_parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child → parent links for every node under *tree*."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def enclosing(
    node: ast.AST,
    parents: dict[ast.AST, ast.AST],
    kinds: tuple[type, ...],
) -> Optional[ast.AST]:
    """Nearest ancestor of *node* that is an instance of *kinds*."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, kinds):
            return current
        current = parents.get(current)
    return None


def enclosing_class(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> Optional[ast.ClassDef]:
    found = enclosing(node, parents, (ast.ClassDef,))
    return found if isinstance(found, ast.ClassDef) else None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def qualname(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> str:
    """``Class.method`` / ``outer.inner`` for a def or class node."""
    names = [node.name]  # type: ignore[attr-defined]
    scope = enclosing(node, parents, _SCOPES)
    while scope is not None:
        names.append(scope.name)  # type: ignore[attr-defined]
        scope = enclosing(scope, parents, _SCOPES)
    return ".".join(reversed(names))


def iter_body_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Every node in *func*'s body except nested function/class bodies.

    Lambda bodies are included — a lambda handed out as a callback still
    runs its calls in the enclosing function's world (e.g. on the same
    event loop), which is exactly what the async rules care about.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class ImportMap:
    """Local name → fully qualified dotted path, from every import in a file.

    Function-local imports count too (the project imports lazily in hot
    paths), so the map is file-global rather than scope-accurate — an
    acceptable over-approximation for a linter: shadowing an imported
    module name with a local variable is its own smell.
    """

    def __init__(self) -> None:
        self._aliases: dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    imports._aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: resolve conservatively
                    continue
                base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    imports._aliases[local] = f"{base}.{alias.name}" if base else alias.name
        return imports

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path for a Name/Attribute chain rooted at an import.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``;
        returns None when the root name was never imported (e.g.
        ``self.rng.random``), so object attributes never masquerade as
        module functions.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self._aliases.get(current.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


@dataclass
class FileContext:
    """Everything a rule needs to check one file."""

    path: str
    module: str
    source: str
    tree: ast.Module
    _parents: Optional[dict[ast.AST, ast.AST]] = field(default=None, repr=False)
    _imports: Optional[ImportMap] = field(default=None, repr=False)

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        if self._parents is None:
            self._parents = build_parents(self.tree)
        return self._parents

    @property
    def imports(self) -> ImportMap:
        if self._imports is None:
            self._imports = ImportMap.from_tree(self.tree)
        return self._imports

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)
