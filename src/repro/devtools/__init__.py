"""reprolint: an AST-based invariant checker for XSDF's contracts.

The test suite proves behavior on the inputs it runs; this package
checks the *shape* of the code against the contracts the reproduction
depends on — ``index=`` fast-path parity guards, cache purity,
pipeline determinism, executor picklability, paper-citation
consistency, and exception/API hygiene — before any test executes.
Stdlib ``ast`` + ``tokenize`` only, like everything else in the tree.

Typical use::

    from repro.devtools import all_rules, LintEngine, render_text

    engine = LintEngine(all_rules(), project_root=".")
    findings = engine.lint_paths(["src", "tests"])
    print(render_text(findings))

or from the command line::

    python -m repro lint src tests benchmarks examples --format json

Suppressions use one syntax tree-wide: ``# lint: disable=rule-id`` on
the offending line, ``# lint: disable-file=rule-id`` for a whole file
(see :mod:`repro.devtools.pragmas`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from .engine import (
    Finding,
    LintContext,
    LintEngine,
    ProjectRule,
    Rule,
    expand_paths,
)
from .model import ModuleInfo, ProjectModel, build_module
from .pragmas import PRAGMA_RULE_ID, PragmaIndex
from .reporters import render_json, render_text
from .rules import RULE_CLASSES, all_rules

__all__ = [
    "Finding",
    "LintContext",
    "LintEngine",
    "ModuleInfo",
    "PRAGMA_RULE_ID",
    "PragmaIndex",
    "ProjectModel",
    "ProjectRule",
    "RULE_CLASSES",
    "Rule",
    "all_rules",
    "build_module",
    "expand_paths",
    "find_project_root",
    "lint_paths",
    "render_json",
    "render_text",
]


def find_project_root(start: str | Path | None = None) -> Path:
    """The nearest ancestor of ``start`` holding DESIGN.md or PAPER.md.

    The definition cross-reference rule needs the paper catalogue;
    walking up from the linted path makes ``repro lint`` work from any
    working directory.  Falls back to ``start`` itself when no
    catalogue file is found.
    """
    origin = Path(start) if start is not None else Path.cwd()
    origin = origin if origin.is_dir() else origin.parent
    for candidate in (origin, *origin.resolve().parents):
        if (candidate / "DESIGN.md").is_file() or \
                (candidate / "PAPER.md").is_file():
            return candidate
    return origin


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    project_root: str | Path | None = None,
) -> list[Finding]:
    """Lint files/directories with the full (or given) rule set.

    Convenience wrapper used by the CLI and the CI gate; the project
    root for the citation catalogue is discovered from the first path
    unless given explicitly.
    """
    path_list = list(paths)
    if project_root is None and path_list:
        project_root = find_project_root(path_list[0])
    engine = LintEngine(
        rules if rules is not None else all_rules(),
        project_root=project_root,
    )
    return engine.lint_paths(path_list)
