"""Rule base class, shared AST helpers, and the default rule set."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding


class Rule:
    """One named, testable invariant checked over a module's AST.

    Subclasses set :attr:`id`/:attr:`title`, optionally restrict
    themselves to architecture layers via :attr:`layers`, and yield
    findings from :meth:`check`. Rules are stateless across modules —
    the engine may run them in any order over any file subset.
    """

    #: The rule id findings and pragmas name (e.g. ``"DET001"``).
    id: str = ""
    #: One-line statement of the invariant (shown by ``--list-rules``).
    title: str = ""
    #: Layers the rule applies to (:attr:`ModuleContext.layer` values);
    #: ``None`` means every module under ``src/``.
    layers: tuple[str, ...] | None = None

    def applies(self, module: ModuleContext) -> bool:
        return self.layers is None or module.layer in self.layers

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, node: ast.AST | int, message: str
    ) -> Finding:
        line = node if isinstance(node, int) else node.lineno
        return Finding(
            path=module.display, line=line, rule=self.id, message=message
        )


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a Name/Attribute chain (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def string_literal(node: ast.AST) -> str | None:
    """The value of a string-constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def literal_string_collection(node: ast.AST) -> frozenset[str] | None:
    """Elements of an all-string List/Tuple/Set literal, else ``None``."""
    if not isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return None
    values = [string_literal(element) for element in node.elts]
    if not values or any(value is None for value in values):
        return None
    return frozenset(values)  # type: ignore[arg-type]


def default_rules() -> list[Rule]:
    """Fresh instances of the full rule set, in id order."""
    from repro.lint.rules.determinism import (
        FloatAccumulationRule,
        StatefulRandomRule,
        WallClockRule,
    )
    from repro.lint.rules.imports import UnusedImportRule
    from repro.lint.rules.io import DurableWriteRule
    from repro.lint.rules.parallel import BackendSelectorRule
    from repro.lint.rules.rng import StreamRegistryRule

    return [
        StatefulRandomRule(),
        WallClockRule(),
        FloatAccumulationRule(),
        StreamRegistryRule(),
        DurableWriteRule(),
        BackendSelectorRule(),
        UnusedImportRule(),
    ]


ALL_RULE_IDS = tuple(
    ("DET001", "DET002", "DET003", "RNG004", "IO005", "PAR006", "IMP007")
)
