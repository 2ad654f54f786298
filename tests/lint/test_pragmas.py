"""Pragma machinery: scoped suppression, mandatory justification, and
the unsuppressible hygiene findings (LNT001/LNT002/LNT003)."""

from __future__ import annotations

from repro.lint import lint_source
from repro.lint.pragmas import (
    MALFORMED_PRAGMA,
    UNKNOWN_RULE,
    UNPARSEABLE,
    parse_pragmas,
)

#: A module with exactly one DET002 violation (wall-clock read).
_CLOCK = 'import time\n\ndef probe():\n    return time.time()\n'

RELPATH = "repro/sim/_pragma_fixture.py"


def _rules(findings):
    return [f.rule for f in findings]


def test_unsuppressed_violation_is_reported():
    findings = lint_source(_CLOCK, RELPATH)
    assert _rules(findings) == ["DET002"]
    assert findings[0].line == 4


def test_inline_pragma_with_justification_suppresses():
    source = _CLOCK.replace(
        "return time.time()",
        "return time.time()  # reprolint: disable=DET002 -- reporting "
        "metadata only, no deterministic value derives from it",
    )
    assert lint_source(source, RELPATH) == []


def test_standalone_pragma_guards_the_next_code_line():
    source = _CLOCK.replace(
        "    return time.time()",
        "    # reprolint: disable=DET002 -- reporting metadata only\n"
        "    return time.time()",
    )
    assert lint_source(source, RELPATH) == []


def test_file_pragma_suppresses_module_wide():
    source = (
        "# reprolint: disable-file=DET002 -- timing sidecar module\n"
        + _CLOCK
    )
    assert lint_source(source, RELPATH) == []


def test_one_pragma_may_name_several_rules():
    source = (
        "# reprolint: disable-file=DET002, DET001 -- legacy timing "
        "module with a seeded jitter generator\n"
        + _CLOCK
        + "import random\n\nJITTER = random.random()\n"
    )
    assert lint_source(source, RELPATH) == []


def test_unjustified_pragma_is_lnt001_and_suppresses_nothing():
    source = _CLOCK.replace(
        "return time.time()",
        "return time.time()  # reprolint: disable=DET002",
    )
    findings = lint_source(source, RELPATH)
    assert sorted(_rules(findings)) == ["DET002", MALFORMED_PRAGMA]


def test_unknown_rule_in_pragma_is_lnt002():
    source = _CLOCK.replace(
        "return time.time()",
        "return time.time()  # reprolint: disable=NOPE999 -- because",
    )
    findings = lint_source(source, RELPATH)
    assert sorted(_rules(findings)) == ["DET002", UNKNOWN_RULE]


def test_hygiene_findings_cannot_be_suppressed():
    # LNT001 is not a rule id pragmas may name; trying reads as an
    # unknown rule — the hygiene layer polices itself.
    source = (
        "# reprolint: disable-file=LNT001 -- hush\n"
        "x = 1\n"
    )
    findings = lint_source(source, RELPATH)
    assert _rules(findings) == [UNKNOWN_RULE]


def test_pragma_only_covers_its_own_line():
    source = (
        "import time\n"
        "\n"
        "def probe():\n"
        "    a = time.time()  # reprolint: disable=DET002 -- metadata\n"
        "    b = time.time()\n"
        "    return a, b\n"
    )
    findings = lint_source(source, RELPATH)
    assert _rules(findings) == ["DET002"]
    assert findings[0].line == 5


def test_pragma_in_a_string_literal_is_not_a_pragma():
    source = _CLOCK + 'DOC = "# reprolint: disable=DET002 -- nope"\n'
    findings = lint_source(source, RELPATH)
    assert _rules(findings) == ["DET002"]


def test_unparseable_module_is_lnt003():
    findings = lint_source("def broken(:\n", RELPATH)
    assert _rules(findings) == [UNPARSEABLE]


def test_parse_pragmas_collects_scopes():
    source = (
        "# reprolint: disable-file=DET001 -- module-wide legacy\n"
        "x = 1  # reprolint: disable=IO005 -- staged, renamed later\n"
    )
    suppressions = parse_pragmas(source, "m.py", ["DET001", "IO005"])
    assert suppressions.file_rules == {"DET001"}
    assert suppressions.line_rules == {2: {"IO005"}}
    assert suppressions.problems == []
    assert suppressions.suppressed("DET001", 99)
    assert suppressions.suppressed("IO005", 2)
    assert not suppressions.suppressed("IO005", 3)
