"""IMP007 — every module-level import is read.

An imported name the module never reads is dead weight: it claims a
dependency the module does not have, and it outlives the code that
used it (a deleted geometry branch leaves its ``Vec2`` import behind).

What the rule flags: each name a module-level ``import`` or
``from ... import`` binds — including those under a module-level
``if``/``try``, such as ``if TYPE_CHECKING:`` blocks — that the module
never loads.

What counts as a read: any load of the name anywhere in the module,
annotations included, and the names inside string annotations
(``"VehicleState"`` forward references). What it deliberately allows:
package ``__init__.py`` modules, whose imports are the package's
re-exports, ``from __future__`` imports and star imports.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules import Rule, string_literal

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class UnusedImportRule(Rule):
    """IMP007 — see module docstring."""

    id = "IMP007"
    title = "every module-level imported name is read"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if PurePosixPath(module.relpath).name == "__init__.py":
            return
        read = _read_names(module.tree)
        for statement in _module_imports(module.tree.body):
            if isinstance(statement, ast.ImportFrom) and (
                statement.module == "__future__"
            ):
                continue
            for alias in statement.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    yield self.finding(
                        module,
                        alias,
                        f"`{name}` is imported but never read; "
                        "delete the import",
                    )


def _module_imports(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Import statements outside any function or class body."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _SCOPES):
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_imports(getattr(node, block, []))


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, string annotations included."""
    read: set[str] = set()
    annotations: list[ast.expr | None] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for part in ast.walk(annotation):
            text = string_literal(part)
            if text is not None:
                read |= _names_in(text)
    return read


def _names_in(text: str) -> set[str]:
    """The names an annotation string refers to (none if unparseable)."""
    try:
        expression = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {
        node.id for node in ast.walk(expression) if isinstance(node, ast.Name)
    }
