"""reprolint — the determinism & contract linter.

Every layer of this reproduction is pinned bit-identical across
backends, workers, shards and resume, but until now those invariants
lived only in parity tests that fire *after* a violation ships. This
package enforces the written contracts structurally, as named
AST-based rules over ``src/``:

========  ==========================================================
DET001    no stateful RNG — draws route through ``repro.core.rng``
DET002    no wall-clock reads in deterministic layers
DET003    no float-accumulation time/station loops (``t += dt``)
RNG004    every stream-tag literal is centrally registered, no
          key-word collisions
IO005     durability-critical modules write through ``repro.ioutil``
PAR006    backend selectors come from the canonical ``BACKENDS`` table
IMP007    every module-level imported name is read
========  ==========================================================

Suppression is explicit and audited: ``# reprolint: disable=RULE --
justification`` on (or directly above) the offending line, or
``# reprolint: disable-file=RULE -- justification`` for a whole
module; a pragma without a written justification is itself a finding
(LNT001). Run via ``repro lint`` or ``tools/reprolint.py``; CI runs
``--strict`` against a committed zero-findings baseline.
"""

from repro.lint.baseline import (
    load_baseline,
    new_findings,
    write_baseline,
)
from repro.lint.engine import (
    iter_source_files,
    lint_file,
    lint_module,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding
from repro.lint.context import ModuleContext
from repro.lint.rules import ALL_RULE_IDS, Rule, default_rules

__all__ = [
    "ALL_RULE_IDS",
    "Finding",
    "ModuleContext",
    "Rule",
    "default_rules",
    "iter_source_files",
    "lint_file",
    "lint_module",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "new_findings",
    "write_baseline",
]
