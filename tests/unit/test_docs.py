"""Documentation stays honest: fences parse, links resolve.

Mirrors the CI docs smoke job (``tools/check_doc_fences.py``) inside
tier-1, so a syntax error in a copy-pasteable example or a dangling
docs link fails locally too.
"""

import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_doc_fences  # noqa: E402


def test_doc_files_exist():
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()
    assert (REPO_ROOT / "docs" / "CAMPAIGNS.md").exists()


def test_readme_links_docs():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/CAMPAIGNS.md" in readme


@pytest.mark.parametrize(
    "path",
    check_doc_fences.doc_files(REPO_ROOT),
    ids=lambda p: p.name,
)
def test_fences_parse(path):
    errors = check_doc_fences.check_file(path)
    assert not errors, "\n".join(errors)


def test_relative_markdown_links_resolve():
    pattern = re.compile(r"\]\((?!https?://|#)([^)]+?)(?:#[^)]*)?\)")
    for path in check_doc_fences.doc_files(REPO_ROOT):
        for target in pattern.findall(path.read_text()):
            resolved = (path.parent / target).resolve()
            assert resolved.exists(), f"{path.name} links missing {target}"


def test_fence_extraction_sees_the_examples():
    # Guard against a regex regression silently checking zero fences.
    campaigns = (REPO_ROOT / "docs" / "CAMPAIGNS.md").read_text()
    fences = check_doc_fences.extract_fences(campaigns)
    langs = [lang for lang, _, _ in fences]
    assert langs.count("python") >= 2
    assert langs.count("bash") >= 2
    assert langs.count("json") >= 3
