"""Engine plumbing, the committed baseline, and the CLI exit-code
contract — including the acceptance property that the shipped source
tree lints clean."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.latency import BACKENDS
from repro.errors import ConfigurationError
from repro.lint import lint_paths
from repro.lint.baseline import (
    load_baseline,
    new_findings,
    write_baseline,
)
from repro.lint.cli import default_scan_root, main
from repro.lint.engine import iter_source_files, package_relpath
from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULE_IDS
from repro.lint.rules.parallel import BACKEND_VOCAB

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

#: One DET002 violation; tmp files lint as layerless top-level modules,
#: where DET002 still applies.
_CLOCK = "import time\n\ndef probe():\n    return time.time()\n"


# ---------------------------------------------------------------- engine


def test_iter_source_files_is_sorted_and_skips_pycache(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    names = [p.name for p in iter_source_files(tmp_path)]
    assert names == ["a.py", "b.py"]


def test_package_relpath_walks_to_the_package_root():
    assert package_relpath(SRC / "core" / "rng.py") == "repro/core/rng.py"
    assert package_relpath(SRC / "ioutil.py") == "repro/ioutil.py"


def test_package_relpath_outside_any_package(tmp_path):
    loose = tmp_path / "loose.py"
    loose.write_text("x = 1\n")
    assert package_relpath(loose) == "loose.py"


# -------------------------------------------------------------- baseline


def _finding(line=4, message="wall-clock read"):
    return Finding(path="m.py", line=line, rule="DET002", message=message)


def test_baseline_roundtrip(tmp_path):
    path = tmp_path / "baseline.json"
    write_baseline(path, [_finding()])
    assert load_baseline(path) == [_finding()]


def test_baseline_diff_is_line_insensitive(tmp_path):
    path = tmp_path / "baseline.json"
    write_baseline(path, [_finding(line=4)])
    baseline = load_baseline(path)
    # Same (path, rule, message) on a shifted line: still baselined.
    assert new_findings([_finding(line=40)], baseline) == []
    # A different message is a new finding.
    fresh = _finding(message="another violation")
    assert new_findings([fresh], baseline) == [fresh]


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        json.dumps({"kind": "something-else", "findings": []}),
        json.dumps(
            {"kind": "reprolint-baseline", "schema": 999, "findings": []}
        ),
    ],
)
def test_damaged_baseline_raises(tmp_path, payload):
    path = tmp_path / "baseline.json"
    path.write_text(payload)
    with pytest.raises(ConfigurationError):
        load_baseline(path)


def test_committed_baseline_is_zero_findings():
    baseline = load_baseline(REPO / "tools" / "reprolint_baseline.json")
    assert baseline == []


# ------------------------------------------------------------------- cli


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_violation_exits_one_and_reports_rule(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(_CLOCK)
    assert main(["--strict", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out
    assert "bad.py" in out


def test_cli_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_damaged_baseline_exits_two(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("x = 1\n")
    damaged = tmp_path / "baseline.json"
    damaged.write_text("{}")
    code = main([str(tmp_path), "--baseline", str(damaged)])
    assert code == 2


def test_cli_baseline_flow(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(_CLOCK)
    baseline = tmp_path / "baseline.json"
    # Record the debt…
    assert main([str(bad), "--write-baseline", str(baseline)]) == 0
    # …existing findings no longer fail…
    assert main([str(bad), "--baseline", str(baseline)]) == 0
    # …strict mode ignores the baseline…
    assert main(["--strict", str(bad), "--baseline", str(baseline)]) == 1
    # …and a new violation fails even with the baseline.
    bad.write_text(_CLOCK + "\ndef again():\n    return time.time_ns()\n")
    capsys.readouterr()
    assert main([str(bad), "--baseline", str(baseline)]) == 1
    assert "beyond baseline" in capsys.readouterr().out


def test_cli_out_artifact_and_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(_CLOCK)
    artifact = tmp_path / "report.json"
    code = main(
        ["--strict", "--format", "json", "--out", str(artifact), str(bad)]
    )
    assert code == 1
    payload = json.loads(artifact.read_text())
    assert payload["kind"] == "reprolint-report"
    assert payload["strict"] is True
    assert [f["rule"] for f in payload["findings"]] == ["DET002"]
    assert payload["new_findings"] == payload["findings"]
    # stdout carries the same payload in json mode.
    assert json.loads(capsys.readouterr().out) == payload


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


# ------------------------------------------------------------ acceptance


def test_shipped_source_tree_lints_clean():
    """The tentpole acceptance property: src/ has zero findings.

    Every invariant violation in the tree is either fixed or carries a
    justified pragma; CI's ``--strict`` run enforces exactly this.
    """
    assert SRC.is_dir()
    assert lint_paths([SRC]) == []


def test_default_scan_root_is_the_shipped_package():
    root = default_scan_root()
    assert root.name == "repro"
    assert (root / "core" / "rng.py").is_file()


def test_backend_vocab_mirrors_the_canonical_table():
    # PAR006 keeps its own static mirror (the linter never imports the
    # code it judges); this pin is what makes the mirror honest.
    assert BACKEND_VOCAB == frozenset(BACKENDS)
