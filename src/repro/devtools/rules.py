"""reprolint's project-specific rules: XSDF's correctness contracts.

Every rule encodes an invariant the test suite can only spot after the
fact — these catch the *shape* of the regression statically:

==================  ========================================================
Rule ID             Contract
==================  ========================================================
index-parity        ``index=`` fast paths must be guarded by ``is not
                    None`` and keep the plain network-walk fallback
cache-purity        no parameter/module-global mutation in the
                    cache-reachable similarity/runtime code
determinism         no unseeded ``random``, wall-clock time, ``os.environ``
                    or set-order-dependent iteration in the pipeline, also
                    through set-valued names that reach float
                    accumulation, ordered output, or memo keys
definition-xref     every ``Definition N`` / ``Eq. (N)`` citation must
                    exist in DESIGN.md / PAPER.md
broad-except        no bare/broad excepts outside annotated isolation
                    boundaries
mutable-default     no mutable default argument values
public-api          public API needs docstrings (and, in
                    ``repro.similarity`` / ``repro.runtime``, complete
                    type annotations)
silent-degrade      fallback/except branches in ``repro.runtime`` must
                    re-raise or emit a MetricsRegistry signal, or carry
                    an explicit pragma
handler-envelope    except branches in ``repro.server`` must re-raise or
                    produce a typed error envelope, or carry an explicit
                    pragma
worker-boundary     no lambdas or local functions at pool submission
                    points; values crossing the boundary must pickle
                    and must not close over mutable parent state
resource-lifecycle  pools, sockets, files and mmaps must be closed via
                    ``with``/``finally`` (or ownership transferred)
==================  ========================================================

Rules are heuristic by design — stdlib ``ast`` has no type
information — but they share the project model
(:mod:`repro.devtools.model`): function-local walks are computed once
per function, and the three flow rules (``determinism``,
``worker-boundary`` and ``resource-lifecycle``, defined in
:mod:`repro.devtools.flowrules`) additionally consult reaching
definitions and the call graph.  ``silent-degrade`` and
``handler-envelope`` share one handler scan.  Each rule is tuned so the
merged tree lints clean and a genuine violation of the contract it
guards cannot slip through the common door (see the per-rule fixture
battery in ``tests/devtools``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .dataflow import MUTATOR_METHODS as _MUTATOR_METHODS
from .engine import LintContext, Rule
from .model import local_nodes

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


# ---------------------------------------------------------------------------
# index-parity
# ---------------------------------------------------------------------------


class IndexParityRule(Rule):
    """``index=`` fast paths must be guarded and keep the slow path.

    The :class:`repro.runtime.pack.PackedIndex` contract is that the
    indexed path is a pure accelerator next to the network-walk oracle:
    any function that *dereferences* an ``index`` parameter (or
    ``self._index`` / ``self._packed``, where
    :class:`~repro.similarity.combined.CombinedSimilarity`, the one
    measure that takes an index, keeps it) — attribute access,
    subscript, or call — must test it against ``None`` in the same
    function and keep a fallback branch that runs the network walk
    without it.  Merely storing or forwarding the index
    (``self._packed = index``, ``XSDF(..., index=index)``) is a
    pass-through and stays silent.
    """

    id = "index-parity"
    description = (
        "functions dereferencing an index= parameter (or the packed-index "
        "attribute) must guard it with 'is not None' and keep a "
        "slower-path fallback branch"
    )

    def visit_FunctionDef(self, fn: ast.FunctionDef, ctx: LintContext) -> None:
        """Check one function's index uses against its None guards."""
        self._check(fn, ctx)

    def visit_AsyncFunctionDef(self, fn, ctx: LintContext) -> None:
        """Async variant of :meth:`visit_FunctionDef`."""
        self._check(fn, ctx)

    def _check(self, fn, ctx: LintContext) -> None:
        index_names = (
            {"index"} if self._has_optional_index_param(fn) else set()
        )
        nodes = ctx.local_nodes(fn)
        # Direct aliases of the index (``index = self._index``) join the
        # tracked set so guards on the alias count.
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and self._is_index_expr(node.value, index_names):
                index_names.add(node.targets[0].id)

        uses = [
            node for node in nodes if self._is_deref(node, index_names)
        ]
        if not uses:
            return
        compares = [
            node for node in nodes
            if self._none_compare_kind(node, index_names) is not None
        ]
        first = min(uses, key=lambda n: (n.lineno, n.col_offset))
        if not compares:
            ctx.report(
                self.id, first,
                "index fast path dereferenced without an 'is not None' "
                "guard; the indexed path must be conditional, with the "
                "plain network walk as the other branch",
            )
            return
        if not self._has_fallback(fn, index_names, ctx):
            ctx.report(
                self.id, first,
                "index None-guard has no fallback branch: keep the plain "
                "network-walk path alongside the indexed fast path",
            )

    def _has_optional_index_param(self, fn) -> bool:
        # The fast-path signature is always ``index=None`` — a *required*
        # parameter that happens to be called ``index`` (pytest fixtures,
        # integer positions) is not the packed-index contract.
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        for arg, default in zip(defaulted, args.defaults):
            if arg.arg == "index" and isinstance(default, ast.Constant) \
                    and default.value is None:
                return True
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == "index" and isinstance(default, ast.Constant) \
                    and default.value is None:
                return True
        return False

    def _is_index_expr(self, node: ast.AST, index_names: set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in index_names
        return (
            isinstance(node, ast.Attribute)
            and node.attr in ("_index", "_packed")
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _is_deref(self, node: ast.AST, index_names: set[str]) -> bool:
        if isinstance(node, ast.Attribute):
            return isinstance(node.ctx, ast.Load) and \
                self._is_index_expr(node.value, index_names)
        if isinstance(node, ast.Subscript):
            return self._is_index_expr(node.value, index_names)
        if isinstance(node, ast.Call):
            return self._is_index_expr(node.func, index_names)
        return False

    def _none_compare_kind(
        self, node: ast.AST, index_names: set[str]
    ) -> str | None:
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))):
            return None
        left, right = node.left, node.comparators[0]
        for a, b in ((left, right), (right, left)):
            if self._is_index_expr(a, index_names) and \
                    isinstance(b, ast.Constant) and b.value is None:
                return "isnot" if isinstance(node.ops[0], ast.IsNot) else "is"
        return None

    def _has_fallback(self, fn, index_names: set[str],
                      ctx: LintContext) -> bool:
        guard_ifs = []
        for node in ctx.local_nodes(fn):
            if isinstance(node, (ast.If, ast.IfExp)):
                for sub in ast.walk(node.test):
                    kind = self._none_compare_kind(sub, index_names)
                    if kind is not None:
                        guard_ifs.append((node, kind))
                        break
        if not guard_ifs:
            # The compare lives outside an if (e.g. assigned to a flag);
            # static analysis cannot follow it further — accept.
            return True
        for node, kind in guard_ifs:
            if isinstance(node, ast.IfExp):
                return True          # ternaries always carry both branches
            if kind == "is":
                return True          # 'if index is None:' body IS the fallback
            if node.orelse or self._has_statements_after(fn, node):
                return True
        return False

    def _has_statements_after(self, fn, target: ast.AST) -> bool:
        for parent in ast.walk(fn):
            for fieldname in ("body", "orelse", "finalbody"):
                seq = getattr(parent, fieldname, None)
                if isinstance(seq, list) and target in seq:
                    return seq.index(target) < len(seq) - 1
        return False


# ---------------------------------------------------------------------------
# cache-purity
# ---------------------------------------------------------------------------


class CachePurityRule(Rule):
    """No parameter or module-global mutation in cache-reachable code.

    The similarity caches (:mod:`repro.runtime.cache`) assume the
    functions they memoize are pure in their inputs: a cached call that
    mutated a parameter or a module global would behave differently on
    a hit than on a miss.  Scoped to ``repro.similarity`` and
    ``repro.runtime`` — the call graph under the cache-wrapped sites.
    Mutating ``self`` is fine (that is where caches themselves live);
    rebinding a local that merely copied a parameter is fine too.
    """

    id = "cache-purity"
    description = (
        "no mutation of parameters or module globals in functions "
        "reachable from cached call sites (repro.similarity, repro.runtime)"
    )
    scope = ("repro/similarity/", "repro/runtime/")

    def visit_FunctionDef(self, fn: ast.FunctionDef, ctx: LintContext) -> None:
        """Check one function for global/parameter mutation."""
        self._check(fn, ctx)

    def visit_AsyncFunctionDef(self, fn, ctx: LintContext) -> None:
        """Async variant of :meth:`visit_FunctionDef`."""
        self._check(fn, ctx)

    def _check(self, fn, ctx: LintContext) -> None:
        nodes = ctx.local_nodes(fn)
        self._check_globals(fn, nodes, ctx)
        params = {
            name for name in ctx.arg_names(fn)
            if name not in ("self", "cls")
        }
        if not params:
            return
        shadowed = self._shadowed_names(nodes)
        live = params - shadowed
        for node in nodes:
            mutated = self._mutated_param(node, live)
            if mutated:
                ctx.report(
                    self.id, node,
                    f"parameter {mutated!r} is mutated; cache-reachable "
                    "functions must treat their inputs as immutable "
                    "(copy first, or return a new value)",
                )

    def _check_globals(self, fn, nodes: list[ast.AST], ctx: LintContext) -> None:
        declared: dict[str, ast.Global] = {}
        for node in nodes:
            if isinstance(node, ast.Global):
                for name in node.names:
                    declared[name] = node
        if not declared:
            return
        for node in nodes:
            if isinstance(node, ast.Name) and node.id in declared \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                stmt = declared[node.id]
                ctx.report(
                    self.id, stmt,
                    f"module global {node.id!r} is reassigned inside a "
                    "function; cached code must not depend on mutable "
                    "process-wide state",
                )
                del declared[node.id]
                if not declared:
                    return

    def _shadowed_names(self, nodes: list[ast.AST]) -> set[str]:
        shadowed: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                shadowed.add(node.id)
            elif isinstance(node, ast.arg):
                pass
        return shadowed

    def _mutated_param(self, node: ast.AST, params: set[str]) -> str | None:
        def param_name(expr: ast.AST) -> str | None:
            if isinstance(expr, ast.Name) and expr.id in params:
                return expr.id
            return None

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS:
            return param_name(node.func.value)
        if isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            return param_name(node.value)
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript):
                return param_name(target.value)
            if isinstance(target, ast.Attribute):
                return param_name(target.value)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            return param_name(node.value)
        return None


# ---------------------------------------------------------------------------
# definition-xref
# ---------------------------------------------------------------------------

_CITATION_PATTERNS = {
    "Definition": re.compile(
        r"\b(?:Definition|Defs?\.?)\s+(\d+)(?:\s*[-–]\s*(\d+))?"
    ),
    "Eq.": re.compile(
        r"\bEqs?\.?\s*\(?(\d+)\)?(?:\s*[-–]\s*\(?(\d+)\)?)?"
    ),
    "Prop.": re.compile(
        r"\bProps?\.?\s+(\d+)(?:\s*[-–]\s*(\d+))?"
    ),
}

#: Catalogue cache keyed by project root (DESIGN.md/PAPER.md rarely
#: change within one lint run; parsing them once per file would be
#: quadratic in tree size).
_CATALOGUE_CACHE: dict[str, dict[str, set[int]] | None] = {}


def load_catalogue(root: Path) -> dict[str, set[int]] | None:
    """Citation namespaces (``Definition``/``Eq.``/``Prop.``) -> valid
    numbers, parsed from DESIGN.md and PAPER.md under ``root``.

    Returns ``None`` when neither file exists — the cross-reference
    rule is inert without a catalogue to check against.
    """
    key = str(root)
    if key in _CATALOGUE_CACHE:
        return _CATALOGUE_CACHE[key]
    texts = []
    for name in ("DESIGN.md", "PAPER.md"):
        path = root / name
        if path.is_file():
            try:
                texts.append(path.read_text(encoding="utf-8"))
            except OSError:
                pass
    if not texts:
        _CATALOGUE_CACHE[key] = None
        return None
    catalogue: dict[str, set[int]] = {}
    for namespace, pattern in _CITATION_PATTERNS.items():
        numbers: set[int] = set()
        for text in texts:
            for match in pattern.finditer(text):
                numbers.update(_expand_citation(match))
        catalogue[namespace] = numbers
    _CATALOGUE_CACHE[key] = catalogue
    return catalogue


def _expand_citation(match: re.Match) -> list[int]:
    first = int(match.group(1))
    second = match.group(2)
    if second is None:
        return [first]
    last = int(second)
    if first <= last <= first + 50:
        return list(range(first, last + 1))
    return [first, last]


class DefinitionXrefRule(Rule):
    """``Definition N`` / ``Eq. (N)`` citations must exist in the docs.

    The code is navigated through its paper citations; a citation of a
    definition or equation that DESIGN.md / PAPER.md do not list is
    either a typo or a drift between code and the paper catalogue —
    both break the audit trail the reproduction depends on.  Scans
    docstrings, string constants, and comments.
    """

    id = "definition-xref"
    description = (
        "Definition/Eq./Prop. citations in code and comments must exist "
        "in the DESIGN.md/PAPER.md catalogue"
    )

    _catalogue: dict[str, set[int]] | None = None

    def begin_file(self, ctx: LintContext) -> None:
        """Load the catalogue and scan this file's comments."""
        self._catalogue = load_catalogue(ctx.project_root)
        if self._catalogue is None:
            return
        for line, text in ctx.comments:
            self._scan(text, line, ctx)

    def visit_Constant(self, node: ast.Constant, ctx: LintContext) -> None:
        """Scan string constants (docstrings included)."""
        if self._catalogue is None or not isinstance(node.value, str):
            return
        self._scan(node.value, node.lineno, ctx, multiline=True)

    def _scan(
        self, text: str, line: int, ctx: LintContext, multiline: bool = False
    ) -> None:
        for namespace, pattern in _CITATION_PATTERNS.items():
            valid = self._catalogue.get(namespace, set())
            for match in pattern.finditer(text):
                bad = [n for n in _expand_citation(match) if n not in valid]
                if not bad:
                    continue
                at = line
                if multiline:
                    at += text[: match.start()].count("\n")
                ctx.report(
                    self.id, None,
                    f"citation {match.group(0).strip()!r} refers to "
                    f"{namespace} {', '.join(map(str, bad))}, which the "
                    "DESIGN.md/PAPER.md catalogue does not define "
                    f"(valid: {_format_numbers(valid)})",
                    line=at, col=0,
                )


def _format_numbers(numbers: set[int]) -> str:
    if not numbers:
        return "none"
    return ", ".join(map(str, sorted(numbers)))


# ---------------------------------------------------------------------------
# broad-except
# ---------------------------------------------------------------------------


class BroadExceptRule(Rule):
    """No bare or broad excepts outside annotated isolation boundaries.

    Swallowing ``Exception`` hides parity and purity regressions behind
    fallback behavior.  The one sanctioned shape is a per-document
    isolation boundary (one bad input must not sink a batch), which
    must be visibly annotated with ``# lint: disable=broad-except`` on
    the ``except`` line.
    """

    id = "broad-except"
    description = (
        "no bare 'except:' or 'except Exception:' outside annotated "
        "isolation boundaries (# lint: disable=broad-except)"
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler,
                            ctx: LintContext) -> None:
        """Flag bare/broad exception handlers."""
        broad = self._broad_name(node.type)
        if node.type is None:
            ctx.report(
                self.id, node,
                "bare 'except:' swallows every error including "
                "KeyboardInterrupt; catch the exceptions the block can "
                "actually raise",
            )
        elif broad:
            ctx.report(
                self.id, node,
                f"'except {broad}:' is too broad; catch specific "
                "exceptions, or annotate a deliberate isolation boundary "
                "with '# lint: disable=broad-except'",
            )

    def _broad_name(self, type_node: ast.AST | None) -> str | None:
        if isinstance(type_node, ast.Name) and \
                type_node.id in ("Exception", "BaseException"):
            return type_node.id
        if isinstance(type_node, ast.Tuple):
            for element in type_node.elts:
                name = self._broad_name(element)
                if name:
                    return name
        return None


# ---------------------------------------------------------------------------
# mutable-default
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
})


class MutableDefaultRule(Rule):
    """No mutable default argument values.

    A ``def f(x, acc=[])`` default is created once and shared across
    calls — state leaks between documents, which is exactly the class
    of bug the determinism contract forbids.
    """

    id = "mutable-default"
    description = "no mutable default argument values ([] / {} / set() / ...)"

    def visit_FunctionDef(self, fn: ast.FunctionDef, ctx: LintContext) -> None:
        """Check positional and keyword-only defaults."""
        self._check(fn, ctx)

    def visit_AsyncFunctionDef(self, fn, ctx: LintContext) -> None:
        """Async variant of :meth:`visit_FunctionDef`."""
        self._check(fn, ctx)

    def visit_Lambda(self, fn: ast.Lambda, ctx: LintContext) -> None:
        """Check lambda defaults."""
        self._check(fn, ctx)

    def _check(self, fn, ctx: LintContext) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[-len(args.defaults):],
                                args.defaults):
            self._check_default(arg, default, ctx)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self._check_default(arg, default, ctx)

    def _check_default(self, arg: ast.arg, default: ast.AST,
                       ctx: LintContext) -> None:
        if self._is_mutable(default):
            ctx.report(
                self.id, default,
                f"mutable default for parameter {arg.arg!r} is shared "
                "across calls; default to None and create the value "
                "inside the function",
            )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            return name in _MUTABLE_CALLS
        return False


# ---------------------------------------------------------------------------
# public-api
# ---------------------------------------------------------------------------

_ANNOTATION_SCOPE = ("repro/similarity/", "repro/runtime/")


class PublicApiRule(Rule):
    """Public API needs docstrings; similarity/runtime needs annotations.

    Everything importable without a leading underscore is public API:
    module-level functions, classes, and their public methods must
    carry docstrings.  In ``repro.similarity`` and ``repro.runtime`` —
    the typed surface shipped with ``py.typed`` — public callables must
    additionally annotate every parameter and the return type
    (``__init__`` is exempt from the return annotation; ``visit_*``
    framework callbacks are exempt from docstrings).
    """

    id = "public-api"
    description = (
        "public functions/classes/methods need docstrings; "
        "repro.similarity and repro.runtime public APIs need complete "
        "type annotations"
    )
    scope = ("src/repro/",)

    def begin_file(self, ctx: LintContext) -> None:
        """Walk module and class bodies (shallow — nested defs are
        implementation detail, not API)."""
        check_annotations = any(
            fragment in ctx.path.replace("\\", "/")
            for fragment in _ANNOTATION_SCOPE
        )
        for stmt in ctx.tree.body:
            if isinstance(stmt, _FUNCTION_NODES):
                self._check_callable(stmt, ctx, check_annotations)
            elif isinstance(stmt, ast.ClassDef):
                self._check_class(stmt, ctx, check_annotations)

    def _is_public(self, name: str) -> bool:
        return not name.startswith("_")

    def _check_class(self, cls: ast.ClassDef, ctx: LintContext,
                     check_annotations: bool) -> None:
        if not self._is_public(cls.name):
            return
        if not ast.get_docstring(cls):
            ctx.report(
                self.id, cls,
                f"public class {cls.name!r} has no docstring",
            )
        for stmt in cls.body:
            if isinstance(stmt, _FUNCTION_NODES):
                self._check_callable(
                    stmt, ctx, check_annotations, owner=cls.name
                )

    def _check_callable(self, fn, ctx: LintContext, check_annotations: bool,
                        owner: str | None = None) -> None:
        name = fn.name
        dunder = name.startswith("__") and name.endswith("__")
        qualified = f"{owner}.{name}" if owner else name
        if not dunder and not self._is_public(name):
            return
        needs_docstring = (
            not dunder and not name.startswith("visit_")
        )
        if needs_docstring and not ast.get_docstring(fn):
            ctx.report(
                self.id, fn,
                f"public callable {qualified!r} has no docstring",
            )
        if not check_annotations:
            return
        if dunder and name not in ("__init__", "__call__"):
            return
        missing = [
            arg.arg
            for arg in (fn.args.posonlyargs + fn.args.args
                        + fn.args.kwonlyargs)
            if arg.annotation is None and arg.arg not in ("self", "cls")
        ]
        if missing:
            ctx.report(
                self.id, fn,
                f"public callable {qualified!r} is missing type "
                f"annotations for: {', '.join(missing)}",
            )
        if fn.returns is None and name != "__init__":
            ctx.report(
                self.id, fn,
                f"public callable {qualified!r} is missing a return "
                "annotation",
            )


# ---------------------------------------------------------------------------
# silent-degrade / handler-envelope: one handler scan
# ---------------------------------------------------------------------------

#: Lookup-miss exceptions: absence handling, not failure handling.
_LOOKUP_MISSES = frozenset({"KeyError", "IndexError", "StopIteration"})


def _caught_names(type_node: ast.AST | None) -> set[str]:
    """Exception class names a handler catches (empty if unknown)."""
    if isinstance(type_node, ast.Name):
        return {type_node.id}
    if isinstance(type_node, ast.Attribute):
        return {type_node.attr}
    if isinstance(type_node, ast.Tuple):
        names: set[str] = set()
        for element in type_node.elts:
            names |= _caught_names(element)
        return names
    return set()


class _HandlerScanRule(Rule):
    """An ``except`` branch must re-raise or make an answering call.

    Handlers catching only lookup-miss exceptions are control flow and
    stay silent.  The scan covers the handler's own body without
    entering nested scopes: a ``raise`` inside a nested ``def`` does
    not re-raise the handled failure.
    """

    #: The finding message for a handler that neither raises nor answers.
    message = ""

    def visit_ExceptHandler(self, node: ast.ExceptHandler,
                            ctx: LintContext) -> None:
        """Flag handlers that swallow a failure without answering it."""
        caught = _caught_names(node.type)
        if caught and caught <= _LOOKUP_MISSES:
            return
        for inner in local_nodes(node):
            if isinstance(inner, ast.Raise):
                return
            if isinstance(inner, ast.Call) and self._answers(inner.func):
                return
        ctx.report(self.id, node, self.message)

    def _answers(self, func: ast.AST) -> bool:
        """Whether a call to ``func`` answers the handled failure."""
        raise NotImplementedError


class SilentDegradeRule(_HandlerScanRule):
    """Fallback branches in ``repro.runtime`` must be observable.

    The resilience contract is that the runtime may degrade (serial
    fallback, heap build for a bad shard) but never *silently*: every
    ``except`` branch that handles a failure must either re-raise or
    emit a :class:`~repro.runtime.metrics.MetricsRegistry` signal
    (``count`` / ``observe`` / ``event``) on its way to the fallback.
    Handlers catching pure lookup-miss exceptions (``KeyError``,
    ``IndexError``, ``StopIteration``) are control flow, not degrades,
    and stay silent; anything else without a raise or an emit needs an
    explicit ``# lint: disable=silent-degrade`` pragma on the
    ``except`` line, which makes the reviewer look at it.
    """

    id = "silent-degrade"
    description = (
        "except/fallback branches in repro.runtime must re-raise or emit "
        "a MetricsRegistry signal (count/observe/event), or carry an "
        "explicit '# lint: disable=silent-degrade' pragma"
    )
    scope = ("repro/runtime/",)
    message = (
        "this except branch degrades silently; re-raise, emit a "
        "MetricsRegistry count/observe/event, or annotate the "
        "deliberate silence with '# lint: disable=silent-degrade'"
    )

    #: MetricsRegistry emission methods that make a fallback observable.
    _EMITTERS = frozenset({"count", "observe", "event"})

    def _answers(self, func: ast.AST) -> bool:
        return isinstance(func, ast.Attribute) and func.attr in self._EMITTERS


class HandlerEnvelopeRule(_HandlerScanRule):
    """Server except branches must answer with a typed error envelope.

    The service contract mirrors the batch pipeline's resilience
    contract at the HTTP boundary: a request never just drops — every
    ``except`` branch in :mod:`repro.server` must either re-raise (the
    connection-level isolation boundary turns it into a 500 envelope)
    or call something that produces/writes an envelope (any call whose
    name mentions ``envelope``).  Handlers catching pure lookup-miss
    exceptions (``KeyError``, ``IndexError``, ``StopIteration``) are
    control flow and stay silent; teardown paths where the peer is
    already gone carry an explicit ``# lint: disable=handler-envelope``
    pragma on the ``except`` line, which makes the reviewer look at
    them.
    """

    id = "handler-envelope"
    description = (
        "except branches in repro.server must re-raise or produce a "
        "typed error envelope (a call naming 'envelope'), or carry an "
        "explicit '# lint: disable=handler-envelope' pragma"
    )
    scope = ("repro/server/",)
    message = (
        "this except branch drops the request without a typed error "
        "envelope; re-raise, call an envelope writer, or annotate a "
        "teardown path with '# lint: disable=handler-envelope'"
    )

    def _answers(self, func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return "envelope" in func.id.lower()
        if isinstance(func, ast.Attribute):
            return "envelope" in func.attr.lower()
        return False


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

from .flowrules import (  # noqa: E402 — registry import, after Rule defs
    DeterminismRule,
    ResourceLifecycleRule,
    WorkerBoundaryRule,
)

#: Stable rule registry: ID -> class.  IDs are part of the suppression
#: and CI contract: never rename one.  Three were retired by folding
#: them into the rule that guards the same invariant —
#: ``determinism-flow`` into ``determinism``, ``picklable-submit`` into
#: ``worker-boundary``, and ``exception-flow`` (which could not fire
#: where those two did not) into ``silent-degrade`` /
#: ``handler-envelope`` — and ``memo-key-purity`` with its invariant,
#: once memo keys stopped folding configuration or network state; no
#: pragma in the tree named them.
RULE_CLASSES: dict[str, type[Rule]] = {
    rule_class.id: rule_class
    for rule_class in (
        IndexParityRule,
        CachePurityRule,
        DeterminismRule,
        DefinitionXrefRule,
        BroadExceptRule,
        MutableDefaultRule,
        PublicApiRule,
        SilentDegradeRule,
        HandlerEnvelopeRule,
        WorkerBoundaryRule,
        ResourceLifecycleRule,
    )
}


def all_rules(only: list[str] | None = None) -> list[Rule]:
    """Fresh instances of every rule (or the ``only`` subset, by ID).

    Raises ``ValueError`` for unknown IDs so a typo in ``--rules``
    fails loudly instead of silently linting nothing.
    """
    if only is None:
        return [rule_class() for rule_class in RULE_CLASSES.values()]
    unknown = sorted(set(only) - set(RULE_CLASSES))
    if unknown:
        raise ValueError(
            f"unknown rule IDs: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(RULE_CLASSES))})"
        )
    return [RULE_CLASSES[rule_id]() for rule_id in only]
