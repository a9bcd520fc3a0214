"""Project model: modules, symbols, bindings — one parse pass.

reprolint analyzes a *project*, not a stream of independent files.
:class:`ProjectModel` is the shared substrate every rule consults:

* one :class:`ModuleInfo` per file — source, AST, comments, the
  module's dotted name, its top-level symbol table, and its import
  bindings (which the call graph follows across modules);
* one :class:`FunctionInfo` per function — with the function's local
  node list (descendants without entering nested scopes) computed once
  and shared by every rule.

Everything here is stdlib ``ast`` + ``tokenize``, like the rest of
devtools.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNCTION_NODES + (ast.Lambda, ast.ClassDef)
#: Compound statements whose bodies stay in the enclosing scope, so a
#: ``def`` under ``if``/``try``/``with``/``for``/``while``/``match``
#: belongs to the same module, class or function as the block.
_BLOCK_NODES = (
    ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
    ast.Try, ast.ExceptHandler, ast.Match, ast.match_case,
) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())


def local_nodes(fn: ast.AST) -> list[ast.AST]:
    """All descendant nodes of ``fn`` without entering nested scopes."""
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))
    return out


def arg_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Positional/keyword/star parameter names, in declaration order."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def collect_comments(source: str) -> list[tuple[int, str]]:
    """All ``(line, text)`` comment tokens of a source string."""
    comments: list[tuple[int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The AST parse already surfaced (or will surface) the problem.
        pass
    return comments


def module_name_for_path(path: str | Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the project root.

    ``src/repro/runtime/pack.py`` becomes ``repro.runtime.pack`` (the
    ``src`` layout prefix is dropped); packages collapse their
    ``__init__``; paths outside the root fall back to the file stem so
    scratch files still get a usable name.
    """
    p = Path(path)
    try:
        rel = p.resolve().relative_to(root.resolve())
    except (ValueError, OSError):
        return p.stem
    parts = list(rel.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else p.stem


class FunctionInfo:
    """One function scope: node, qualified name, cached local walks."""

    __slots__ = ("node", "qualname", "class_name", "_local_nodes",
                 "_arg_names")

    def __init__(self, node, qualname: str, class_name: str | None):
        self.node = node
        self.qualname = qualname
        self.class_name = class_name
        self._local_nodes: list[ast.AST] | None = None
        self._arg_names: list[str] | None = None

    @property
    def local_nodes(self) -> list[ast.AST]:
        """Cached body walk — computed once, shared by every rule."""
        if self._local_nodes is None:
            self._local_nodes = local_nodes(self.node)
        return self._local_nodes

    @property
    def arg_names(self) -> list[str]:
        """Cached parameter-name list."""
        if self._arg_names is None:
            self._arg_names = arg_names(self.node)
        return self._arg_names


class ModuleInfo:
    """Everything the engine knows about one file after one parse."""

    def __init__(
        self,
        path: str,
        name: str,
        source: str,
        tree: ast.Module | None,
        comments: list[tuple[int, str]],
        parse_error: tuple[int, int, str] | None = None,
    ):
        self.path = path
        self.name = name
        self.source = source
        self.tree = tree
        self.comments = comments
        self.parse_error = parse_error
        self.functions: dict[str, FunctionInfo] = {}
        self._by_node: dict[int, FunctionInfo] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        self.class_methods: dict[str, dict[str, FunctionInfo]] = {}
        self.class_bases: dict[str, list[str]] = {}
        self.top_assigns: dict[str, ast.expr] = {}
        self.bindings: dict[str, tuple] = {}
        self._parents: dict[int, ast.AST] = {}
        self.first_code_line: int | None = None
        if tree is not None:
            self._populate(tree)

    # -- construction --------------------------------------------------------

    def _populate(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node
        self._index_scope(tree, prefix="", class_name=None)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.top_assigns[target.id] = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                    and isinstance(stmt.target, ast.Name):
                self.top_assigns[stmt.target.id] = stmt.value
        self._index_imports(tree)
        self.first_code_line = self._find_first_code_line(tree)

    def _index_scope(self, scope, prefix: str, class_name: str | None) -> None:
        for stmt in ast.iter_child_nodes(scope):
            if isinstance(stmt, _FUNCTION_NODES):
                qual = f"{prefix}{stmt.name}"
                info = FunctionInfo(stmt, qual, class_name)
                self.functions[qual] = info
                self._by_node[id(stmt)] = info
                if class_name is not None and prefix == f"{class_name}.":
                    self.class_methods.setdefault(class_name, {})[
                        stmt.name] = info
                self._index_scope(stmt, prefix=f"{qual}.", class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{prefix}{stmt.name}"
                if prefix == "":
                    self.classes[stmt.name] = stmt
                    self.class_methods.setdefault(stmt.name, {})
                    self.class_bases[stmt.name] = [
                        base.id if isinstance(base, ast.Name) else base.attr
                        for base in stmt.bases
                        if isinstance(base, (ast.Name, ast.Attribute))
                    ]
                self._index_scope(stmt, prefix=f"{qual}.",
                                  class_name=stmt.name if prefix == ""
                                  else class_name)
            elif isinstance(stmt, _BLOCK_NODES):
                self._index_scope(stmt, prefix=prefix, class_name=class_name)

    def _index_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.bindings.setdefault(bound, ("module", target))
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_relative(node)
                if base is None:
                    continue
                for alias in node.names:
                    self.bindings.setdefault(
                        alias.asname or alias.name,
                        ("symbol", base, alias.name),
                    )

    def _resolve_relative(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module or ""
        # The importing package: a package ``__init__`` is named after
        # its package, any other module after itself.
        parts = self.name.split(".")
        if Path(self.path).stem != "__init__":
            parts = parts[:-1]
        if node.level - 1 > len(parts):
            return None
        base_parts = parts[: len(parts) - (node.level - 1)]
        if node.module:
            base_parts += node.module.split(".")
        return ".".join(base_parts)

    def _find_first_code_line(self, tree: ast.Module) -> int | None:
        for i, stmt in enumerate(tree.body):
            if i == 0 and isinstance(stmt, ast.Expr) and \
                    isinstance(stmt.value, ast.Constant) and \
                    isinstance(stmt.value.value, str):
                continue  # the module docstring
            return stmt.lineno
        return None

    # -- queries -------------------------------------------------------------

    def function_at(self, node: ast.AST) -> FunctionInfo | None:
        """The :class:`FunctionInfo` owning this def node, if indexed."""
        return self._by_node.get(id(node))

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        """The AST parent of ``node`` (None for the module itself)."""
        return self._parents.get(id(node))

    def module_nodes(self) -> list[ast.AST]:
        """Module-level statements walked without entering scopes."""
        if self.tree is None:
            return []
        return local_nodes(self.tree)


def build_module(path: str, source: str, root: Path) -> ModuleInfo:
    """Parse and index one module.

    A syntax error does not raise: the module keeps ``tree=None`` and
    a ``(line, col, message)`` ``parse_error`` that the engine reports.
    """
    try:
        tree = ast.parse(source, filename=path)
        error = None
    except SyntaxError as exc:
        tree = None
        error = (exc.lineno or 1, (exc.offset or 1) - 1,
                 f"cannot parse: {exc.msg}")
    return ModuleInfo(
        path=path,
        name=module_name_for_path(path, root),
        source=source,
        tree=tree,
        comments=collect_comments(source),
        parse_error=error,
    )


class ProjectModel:
    """The modules of one lint run, by dotted name."""

    def __init__(self, root: Path):
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        self._callgraph = None

    def add_module(self, info: ModuleInfo) -> None:
        """Register a parsed module (last one wins on name collision)."""
        self.modules[info.name] = info

    @property
    def callgraph(self):
        """The conservative project call graph (built on first use)."""
        if self._callgraph is None:
            from .callgraph import CallGraph
            self._callgraph = CallGraph(self)
        return self._callgraph
