"""Pragma suppressions: explicit, scoped, and always justified.

Two forms, parsed from comments (via ``tokenize``, so strings that
merely *mention* pragmas don't count):

* ``# reprolint: disable=DET003 -- why this exception is sound``
  suppresses the named rule(s) on its own line — or, when the comment
  stands alone on a line, on the next code line (for statements that
  would blow the line length with an inline pragma).
* ``# reprolint: disable-file=RULE -- why`` suppresses the rule(s)
  for the whole module (the allowlist mechanism: e.g. DET002 in
  :mod:`repro.batch.reporting`, the one module that reads the wall
  clock).

The ``--`` justification is mandatory: a pragma without one is not a
suppression, it is an **LNT001 finding** — so every exception in the
tree carries its own written rationale, reviewable in place. Unknown
rule ids are LNT002 (a typo would otherwise silently suppress
nothing). These hygiene findings are themselves unsuppressible.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.findings import Finding

#: Rule ids for pragma hygiene problems (never suppressible).
MALFORMED_PRAGMA = "LNT001"
UNKNOWN_RULE = "LNT002"
UNPARSEABLE = "LNT003"

_PRAGMA = re.compile(
    r"#\s*reprolint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)\s*(?:--\s*(?P<why>.*\S))?\s*$"
)


@dataclass
class Suppressions:
    """Parsed pragma state for one module."""

    #: rules suppressed module-wide.
    file_rules: set[str] = field(default_factory=set)
    #: line → rules suppressed on that line.
    line_rules: dict[int, set[str]] = field(default_factory=dict)
    #: pragma-hygiene findings (malformed / unknown-rule pragmas).
    problems: list[Finding] = field(default_factory=list)

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether a finding of ``rule`` at ``line`` is suppressed."""
        if rule in self.file_rules:
            return True
        return rule in self.line_rules.get(line, set())


def parse_pragmas(
    source: str, display: str, known_rules: Iterable[str]
) -> Suppressions:
    """Collect this module's pragma suppressions and hygiene findings.

    Args:
        source: module source text.
        display: path used in hygiene findings.
        known_rules: valid rule ids; anything else in a pragma is
            LNT002.
    """
    known = set(known_rules)
    result = Suppressions()
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError):
        # The engine reports unparseable modules (LNT003); comments of
        # a file that cannot tokenize suppress nothing.
        return result
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        if "reprolint" not in token.string:
            continue
        line_no = token.start[0]
        match = _PRAGMA.match(token.string.strip())
        if match is None or not match.group("why"):
            result.problems.append(
                Finding(
                    path=display,
                    line=line_no,
                    rule=MALFORMED_PRAGMA,
                    message=(
                        "malformed or unjustified reprolint pragma; the "
                        "form is `# reprolint: disable[-file]=RULE -- "
                        "justification` and the justification is "
                        "mandatory"
                    ),
                )
            )
            continue
        rules = {r.strip() for r in match.group("rules").split(",")}
        rules.discard("")
        unknown = sorted(rules - known)
        if unknown:
            result.problems.append(
                Finding(
                    path=display,
                    line=line_no,
                    rule=UNKNOWN_RULE,
                    message=(
                        f"pragma names unknown rule(s) {unknown}; it "
                        "would suppress nothing"
                    ),
                )
            )
            rules &= known
        if not rules:
            continue
        if match.group("scope") == "disable-file":
            result.file_rules |= rules
        else:
            scope_line = line_no
            # A standalone pragma comment guards the next code line.
            text = token.line[: token.start[1]]
            if not text.strip():
                scope_line = _next_code_line(tokens, line_no)
            result.line_rules.setdefault(scope_line, set()).update(rules)
            # Multi-line statements report their first line; an inline
            # pragma on a continuation line still has to reach it, so
            # pragmas also cover the line they sit on.
            if scope_line != line_no:
                result.line_rules.setdefault(line_no, set()).update(rules)
    return result


def _next_code_line(tokens: list, after: int) -> int:
    """First line after ``after`` holding a non-comment token."""
    skip = {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
    }
    for token in tokens:
        if token.start[0] > after and token.type not in skip:
            return token.start[0]
    return after
