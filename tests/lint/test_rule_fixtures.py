"""Per-rule fixture corpora: every rule fires on its known-bad file at
exactly the ``# expect: RULE`` lines and stays silent on its known-good
twin.

The corpus files under ``fixtures/`` are never imported — they are read
as text and linted through :func:`repro.lint.lint_source` with a
synthetic package-relative path, so one file on disk can stand in for
any architecture layer.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import lint_source
from repro.lint.rules import ALL_RULE_IDS, Rule
from repro.lint.rules.determinism import (
    FloatAccumulationRule,
    StatefulRandomRule,
    WallClockRule,
)
from repro.lint.rules.imports import UnusedImportRule
from repro.lint.rules.io import DurableWriteRule
from repro.lint.rules.parallel import BackendSelectorRule
from repro.lint.rules.rng import StreamRegistryRule, tag_word

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT = re.compile(r"#\s*expect:\s*([A-Z]+\d{3})")

#: rule id → (rule factory, synthetic relpath the corpus lints as).
CASES: dict[str, tuple] = {
    "DET001": (StatefulRandomRule, "repro/scenarios/_fixture.py"),
    "DET002": (WallClockRule, "repro/sim/_fixture.py"),
    "DET003": (FloatAccumulationRule, "repro/core/_fixture.py"),
    "RNG004": (
        lambda: StreamRegistryRule(
            registry={"good.tag": tag_word("good.tag")}
        ),
        "repro/perception/_fixture.py",
    ),
    "IO005": (DurableWriteRule, "repro/store/_fixture.py"),
    "PAR006": (BackendSelectorRule, "repro/batch/_fixture.py"),
    "IMP007": (UnusedImportRule, "repro/core/_fixture.py"),
}


def _corpus(rule_id: str, kind: str) -> str:
    return (FIXTURES / f"{rule_id.lower()}_{kind}.py").read_text()


def _expected_lines(source: str, rule_id: str) -> set[int]:
    expected = set()
    for line_no, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            assert match.group(1) == rule_id, (
                f"fixture marker names {match.group(1)}, "
                f"corpus belongs to {rule_id}"
            )
            expected.add(line_no)
    return expected


def test_cases_cover_every_rule():
    assert set(CASES) == set(ALL_RULE_IDS)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_corpus_fires_exactly_where_marked(rule_id):
    factory, relpath = CASES[rule_id]
    source = _corpus(rule_id, "bad")
    expected = _expected_lines(source, rule_id)
    assert expected, f"{rule_id} bad corpus has no expect markers"
    findings = lint_source(source, relpath, rules=[factory()])
    assert findings, f"{rule_id} silent on its known-bad corpus"
    assert {f.rule for f in findings} == {rule_id}
    assert {f.line for f in findings} == expected


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_good_corpus_stays_silent(rule_id):
    factory, relpath = CASES[rule_id]
    source = _corpus(rule_id, "good")
    assert not _expected_lines(source, rule_id)
    assert lint_source(source, relpath, rules=[factory()]) == []


@pytest.mark.parametrize(
    ("rule_id", "foreign_relpath"),
    [
        # DET003 is scoped to sim/prediction/core; IO005 to store/batch.
        ("DET003", "repro/batch/_fixture.py"),
        ("IO005", "repro/sim/_fixture.py"),
    ],
)
def test_layer_scoped_rules_skip_foreign_layers(rule_id, foreign_relpath):
    factory, _ = CASES[rule_id]
    source = _corpus(rule_id, "bad")
    assert lint_source(source, foreign_relpath, rules=[factory()]) == []


def test_package_init_reexports_are_not_findings():
    source = _corpus("IMP007", "bad")
    findings = lint_source(
        source, "repro/core/__init__.py", rules=[UnusedImportRule()]
    )
    assert findings == []


def test_every_finding_reports_the_fixture_display_path():
    factory, relpath = CASES["IO005"]
    findings = lint_source(_corpus("IO005", "bad"), relpath, rules=[factory()])
    assert all(f.path == relpath for f in findings)


def test_rule_base_check_is_abstract():
    with pytest.raises(NotImplementedError):
        next(Rule().check(None))


def test_register_stream_is_allowed_inside_the_registry_module():
    # The canonical registry module is the one place register_stream
    # literals belong; linting it must not raise "outside the registry".
    source = (
        "from repro.errors import ConfigurationError\n"
        'STREAM_A = register_stream("alpha.stream")\n'
        'STREAM_B = register_stream("beta.stream")\n'
    )
    findings = lint_source(
        source, "repro/core/rng.py", rules=[StreamRegistryRule()]
    )
    assert findings == []
