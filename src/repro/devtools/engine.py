"""The reprolint engine: one pass over the tree — read, parse, model, check.

Design goals, in order:

1. **One parse per file, one model per run.**  Every file is parsed
   once into a :class:`~repro.devtools.model.ModuleInfo`; the
   :class:`~repro.devtools.model.ProjectModel` holds them all and
   lazily derives the call graph.  Rules implement ``visit_<NodeType>``
   handlers fed from a single walk of each file, and
   :class:`ProjectRule` subclasses also see the whole model through
   ``check_module``.
2. **Stable rule IDs.**  IDs are part of the suppression contract
   (``# lint: disable=rule-id``) and of CI output; a shipped ID is
   only retired when no pragma in the tree names it.
3. **stdlib only.**  ``ast`` + ``tokenize`` — the checker must run in
   the same dependency-free environment as the library it guards.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .model import (
    ModuleInfo,
    ProjectModel,
    arg_names as _walk_arg_names,
    build_module,
    local_nodes as _walk_local_nodes,
)
from .pragmas import PRAGMA_RULE_ID, PragmaIndex


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        """The conventional clickable ``path:line:col`` prefix."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the JSON reporter)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``description`` and implement any of:

    * ``visit_<NodeType>(self, node, ctx)`` — called from the single
      file walk for every node of that type;
    * ``begin_file(self, ctx)`` — called once before the walk (e.g. to
      scan comments);
    * ``end_file(self, ctx)`` — called once after the walk.

    ``scope`` restricts where the rule applies: a tuple of path
    fragments, at least one of which must occur in the posix-normalized
    file path.  ``None`` means the rule applies everywhere.
    """

    id: str = ""
    description: str = ""
    scope: tuple[str, ...] | None = None

    def applies_to(self, path: str) -> bool:
        """Whether this rule's scope covers ``path``."""
        if self.scope is None:
            return True
        posix = path.replace("\\", "/")
        return any(fragment in posix for fragment in self.scope)

    def begin_file(self, ctx: "LintContext") -> None:
        """Per-file setup hook (default: nothing)."""

    def end_file(self, ctx: "LintContext") -> None:
        """Per-file teardown hook (default: nothing)."""


class ProjectRule(Rule):
    """Rules that consult the whole-project model.

    Besides any ``visit_<NodeType>`` handlers, a project rule
    implements ``check_module(ctx)``, called once per module after the
    file walk; ``ctx.module`` / ``ctx.model`` expose the module's
    scopes and the call graph.  Findings are reported per module,
    through ``ctx.report``.
    """

    def check_module(self, ctx: "LintContext") -> None:
        """Check one module against the project model."""
        raise NotImplementedError


@dataclass
class LintContext:
    """Everything a rule may consult while checking one file."""

    path: str
    source: str
    tree: ast.Module
    comments: list[tuple[int, str]]
    pragmas: PragmaIndex
    project_root: Path
    module: ModuleInfo | None = None
    model: ProjectModel | None = None
    findings: list[Finding] = field(default_factory=list)

    def report(
        self,
        rule_id: str,
        node: ast.AST | None,
        message: str,
        line: int | None = None,
        col: int | None = None,
    ) -> None:
        """File a finding unless a pragma suppresses it at that line."""
        at_line = line if line is not None else getattr(node, "lineno", 1)
        at_col = col if col is not None else getattr(node, "col_offset", 0)
        if self.pragmas.is_disabled(rule_id, at_line):
            return
        self.findings.append(Finding(
            rule=rule_id, path=self.path,
            line=at_line, col=at_col, message=message,
        ))

    def local_nodes(self, fn: ast.AST) -> list[ast.AST]:
        """Function-local nodes, served from the model's per-function
        cache when available (one walk shared by every rule)."""
        if self.module is not None:
            info = self.module.function_at(fn)
            if info is not None:
                return info.local_nodes
        return _walk_local_nodes(fn)

    def arg_names(self, fn) -> list[str]:
        """Parameter names of ``fn``, via the model cache when possible."""
        if self.module is not None:
            info = self.module.function_at(fn)
            if info is not None:
                return info.arg_names
        return _walk_arg_names(fn)


class LintEngine:
    """Runs a set of rules over files or source strings."""

    def __init__(
        self,
        rules: Sequence[Rule],
        project_root: str | Path | None = None,
    ):
        ids = [rule.id for rule in rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule IDs: {sorted(ids)}")
        if PRAGMA_RULE_ID in ids:
            raise ValueError(f"rule ID {PRAGMA_RULE_ID!r} is reserved")
        self.rules = list(rules)
        self.rule_ids = frozenset(ids)
        self.project_root = Path(project_root) if project_root else Path.cwd()
        # Pragmas are validated against the full registry, not just the
        # active subset: a ``--rules silent-degrade`` run over a file
        # carrying a legitimate broad-except suppression must not
        # invent pragma errors.
        from .rules import RULE_CLASSES  # runtime import: rules imports us
        self.known_pragma_ids = self.rule_ids | frozenset(RULE_CLASSES)

    # -- per-source entry points --------------------------------------------

    def lint_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one source string presented as ``path``.

        Builds a single-module project model, so project rules run with
        whatever cross-module context one file can carry.  Syntax
        errors become findings under the ``parse-error`` pseudo-rule
        rather than exceptions: a broken file must fail the lint run,
        not crash it.
        """
        info = build_module(path, source, self.project_root)
        model = ProjectModel(self.project_root)
        model.add_module(info)
        return self._lint_module(info, model)

    def lint_file(self, path: str | Path) -> list[Finding]:
        """Lint one file from disk."""
        return self.lint_paths([path])

    def lint_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        """Lint files and directories (recursed for ``*.py``).

        One pass: read and parse every file, build one project model
        over all of them, then check every module against it.  A file
        that cannot be read or decoded becomes a ``parse-error``
        finding.
        """
        findings: list[Finding] = []
        modules: list[ModuleInfo] = []
        for file_path in expand_paths(paths):
            try:
                source = file_path.read_bytes().decode("utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                findings.append(Finding(
                    rule="parse-error", path=str(file_path), line=1, col=0,
                    message=f"cannot read: {exc}",
                ))
                continue
            modules.append(
                build_module(str(file_path), source, self.project_root)
            )
        model = ProjectModel(self.project_root)
        for info in modules:
            model.add_module(info)
        for info in modules:
            findings.extend(self._lint_module(info, model))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    # -- internals -----------------------------------------------------------

    def _lint_module(
        self, info: ModuleInfo, model: ProjectModel
    ) -> list[Finding]:
        if info.parse_error is not None:
            line, col, message = info.parse_error
            return [Finding(
                rule="parse-error", path=info.path,
                line=line, col=col, message=message,
            )]
        pragmas = PragmaIndex.parse(
            info.comments, self.known_pragma_ids,
            first_code_line=info.first_code_line,
        )
        ctx = LintContext(
            path=info.path, source=info.source, tree=info.tree,
            comments=info.comments, pragmas=pragmas,
            project_root=self.project_root, module=info, model=model,
        )
        for error in pragmas.errors:
            ctx.findings.append(Finding(
                rule=PRAGMA_RULE_ID, path=info.path,
                line=error.line, col=0, message=error.message,
            ))
        active = [rule for rule in self.rules if rule.applies_to(info.path)]
        project_rules = [r for r in active if isinstance(r, ProjectRule)]
        dispatch = _build_dispatch(active)
        for rule in active:
            rule.begin_file(ctx)
        for node in ast.walk(info.tree):
            for handler in dispatch.get(type(node).__name__, ()):
                handler(node, ctx)
        for rule in active:
            rule.end_file(ctx)
        for rule in project_rules:
            rule.check_module(ctx)
        ctx.findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return ctx.findings


def expand_paths(paths: Iterable[str | Path]) -> list[Path]:
    """Resolve files/directories into a sorted, de-duplicated file list.

    Directories are walked recursively for ``*.py``; explicit file
    arguments are kept as-is (whatever their suffix), so a scratch file
    can be linted directly.
    """
    seen: set[Path] = set()
    ordered: list[Path] = []
    for path in paths:
        p = Path(path)
        candidates = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                ordered.append(candidate)
    return ordered


def _build_dispatch(
    rules: Sequence[Rule],
) -> dict[str, list[Callable[[ast.AST, LintContext], None]]]:
    """Map AST node-type name -> the active rules' visit handlers."""
    dispatch: dict[str, list[Callable[[ast.AST, LintContext], None]]] = {}
    for rule in rules:
        for attr in dir(rule):
            if attr.startswith("visit_"):
                dispatch.setdefault(attr[len("visit_"):], []).append(
                    getattr(rule, attr)
                )
    return dispatch
