"""The v2 flow rules: project-model analyses over the whole program.

Four rule families that cannot be written as single-file AST walks —
each one consults the :class:`~repro.devtools.model.ProjectModel`'s
import graph, call graph, or dataflow summaries:

* **determinism-flow** — a set-valued *name* (tracked through reaching
  definitions) must not feed an order-sensitive sink: float
  accumulation, ordered output records, or memo-key construction.  The
  file-scoped ``determinism`` rule catches ``for x in {…}``; this one
  catches ``s = set(…); … for x in s``.
* **worker-boundary** — values crossing a pool submission boundary
  must pickle (no lambdas, generators, or open file handles reaching
  the argument tuple), and the submitted callable must not read module
  globals that the parent process initializes mutable and mutates —
  fork-time snapshots of such state are silently stale in workers.
  The sanctioned pattern (``_WORKER_X = None`` at module level,
  written only by the pool initializer) stays silent because the
  parent-side value is immutable.
* **exception-flow** — a handler catching a *typed repro error*
  (``…Error`` / ``…Fault`` / ``…Abort`` outside builtins) in
  ``repro.runtime`` / ``repro.server`` must route it to an outcome:
  re-raise, a :class:`DocOutcome`, an error envelope, or (runtime
  only) a metrics emission — directly or through any callee the call
  graph can follow.  This upgrades ``silent-degrade`` /
  ``handler-envelope``, which only look at the handler body itself,
  and it honors their pragmas so existing annotated boundaries stay
  annotated once.
* **resource-lifecycle** — pools, sockets, files and mmaps bound to a
  local name must be released in the same scope (``with``, a
  ``close``-family call, usually in ``finally``) unless ownership
  visibly transfers (returned, yielded, stored on an object, or
  passed to another call).

Findings of every rule here depend only on the reported module and
the modules it transitively imports — the invariant the incremental
cache's importer-closure invalidation rests on (see
:class:`~repro.devtools.engine.ProjectRule`).
"""

from __future__ import annotations

import ast

from .dataflow import (
    Definitions,
    MUTATOR_METHODS,
    is_pool_receiver,
    is_set_valued,
    submitted_callables,
    typed_caught_names,
)
from .engine import LintContext, ProjectRule
from .model import FunctionInfo, ModuleInfo, local_nodes

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scopes(info: ModuleInfo):
    """Yield ``(fn_info_or_None, nodes)`` for every scope of a module."""
    yield None, info.module_nodes()
    for fn_info in info.functions.values():
        yield fn_info, fn_info.local_nodes


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# ---------------------------------------------------------------------------
# determinism-flow
# ---------------------------------------------------------------------------

#: AugAssign operators that make accumulation order observable (float
#: addition is not associative; string/list building is ordered).
_ACCUMULATE_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)

#: Method calls that append to an ordered output record.
_ORDERED_APPENDERS = frozenset({
    "append", "extend", "insert", "write", "writelines",
})

#: Calls that materialize their argument's iteration order.
_ORDER_MATERIALIZERS = frozenset({"list", "tuple", "sum", "join"})

#: Wrappers that erase iteration order again — a set-valued argument
#: inside one of these is fine.
_ORDER_ERASERS = frozenset({"sorted", "set", "frozenset", "len", "min",
                            "max", "any", "all"})


class DeterminismFlowRule(ProjectRule):
    """Set-valued names must not reach order-sensitive sinks.

    Reaching definitions type each local name; a ``for`` loop over a
    set-valued name whose body accumulates floats, appends to an
    output record, or yields — and a ``list``/``tuple``/``sum``/
    ``join`` over a set-valued name outside a ``sorted(...)`` — both
    make pipeline output depend on hash-seed iteration order.
    """

    id = "determinism-flow"
    description = (
        "set-valued names (tracked through reaching definitions) must "
        "not feed float accumulation, ordered output records, or memo "
        "keys; sort first"
    )
    scope = ("repro/core/", "repro/similarity/", "repro/semnet/")

    def check_module(self, ctx: LintContext) -> None:
        """Check every scope's set-valued names against order sinks."""
        info = ctx.module
        for _fn_info, nodes in _scopes(info):
            defs = Definitions.from_nodes(nodes)
            for node in nodes:
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    self._check_loop(node, defs, ctx)
                elif isinstance(node, ast.Call):
                    self._check_call(node, defs, info, ctx)
                elif isinstance(node, ast.ListComp):
                    self._check_listcomp(node, defs, info, ctx)

    def _check_loop(self, loop, defs: Definitions, ctx: LintContext) -> None:
        if not isinstance(loop.iter, ast.Name) or \
                not is_set_valued(loop.iter, defs):
            return
        sink = self._order_sink_in(loop)
        if sink is not None:
            ctx.report(
                self.id, loop.iter,
                f"loop iterates set-valued name {loop.iter.id!r} and "
                f"{sink}; set iteration order is hash-seed dependent — "
                f"iterate sorted({loop.iter.id}) to keep the pipeline "
                "replayable",
            )

    def _order_sink_in(self, loop) -> str | None:
        for node in local_nodes(loop):
            if isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, _ACCUMULATE_OPS):
                return "accumulates into an augmented assignment"
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _ORDERED_APPENDERS:
                return (
                    f"appends to an ordered record via "
                    f".{node.func.attr}()"
                )
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yields elements in iteration order"
        return None

    def _check_call(self, call: ast.Call, defs: Definitions,
                    info: ModuleInfo, ctx: LintContext) -> None:
        name = _call_name(call.func)
        if name not in _ORDER_MATERIALIZERS or not call.args:
            return
        arg = call.args[0]
        if not isinstance(arg, ast.Name) or not is_set_valued(arg, defs):
            return
        if self._order_erased(call, info):
            return
        ctx.report(
            self.id, call,
            f"{name}() materializes the iteration order of set-valued "
            f"name {arg.id!r}; wrap it in sorted(...) so the result "
            "(and any memo key built from it) is replayable",
        )

    def _check_listcomp(self, comp: ast.ListComp, defs: Definitions,
                        info: ModuleInfo, ctx: LintContext) -> None:
        first = comp.generators[0].iter if comp.generators else None
        if not isinstance(first, ast.Name) or not is_set_valued(first, defs):
            return
        if self._order_erased(comp, info):
            return
        ctx.report(
            self.id, comp,
            f"list comprehension over set-valued name {first.id!r} "
            "materializes set iteration order; iterate "
            f"sorted({first.id}) instead",
        )

    def _order_erased(self, node: ast.AST, info: ModuleInfo) -> bool:
        current = node
        for _ in range(3):
            parent = info.parent_of(current)
            if parent is None:
                return False
            if isinstance(parent, ast.Call) and \
                    _call_name(parent.func) in _ORDER_ERASERS:
                return True
            if not isinstance(parent, (ast.Call, ast.Starred,
                                       ast.GeneratorExp)):
                return False
            current = parent
        return False


# ---------------------------------------------------------------------------
# worker-boundary
# ---------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
})

_DATA_KEYWORDS = frozenset({"args", "initargs", "iterable"})


def _crossing_data(call: ast.Call) -> list[ast.AST]:
    """Expressions whose *values* are pickled across this submit call."""
    out: list[ast.AST] = []
    if isinstance(call.func, ast.Attribute) and \
            is_pool_receiver(call.func.value):
        attr = call.func.attr
        if attr in ("apply", "apply_async") and len(call.args) > 1:
            payload = call.args[1]
            out.extend(payload.elts if isinstance(payload, (ast.Tuple,
                                                            ast.List))
                       else [payload])
        elif attr in ("map", "map_async", "imap", "imap_unordered",
                      "starmap", "starmap_async", "submit"):
            out.extend(call.args[1:])
    for keyword in call.keywords:
        if keyword.arg in _DATA_KEYWORDS:
            payload = keyword.value
            out.extend(payload.elts if isinstance(payload, (ast.Tuple,
                                                            ast.List))
                       else [payload])
    return out


class WorkerBoundaryRule(ProjectRule):
    """What crosses a pool boundary must pickle and must be fresh.

    Two hazards at every submission point, both invisible to the v1
    per-file rules:

    1. a *data* argument that is (or reaches, via a local definition)
       a lambda, generator expression, or open file handle — those
       fail to pickle at runtime, sometimes only under load;
    2. a submitted *callable* that — transitively, along the call
       graph — reads a module global initialized to a mutable value
       and mutated by parent-side code: workers see a fork-time
       snapshot, so parent mutations silently never arrive.
    """

    id = "worker-boundary"
    description = (
        "values crossing a pool submit boundary must pickle, and "
        "submitted callables must not read mutable module globals "
        "mutated in the parent process"
    )

    def __init__(self) -> None:
        self._hazard_cache: dict[tuple[int, str], dict[str, int]] = {}

    def check_module(self, ctx: LintContext) -> None:
        """Inspect every submission call in every scope."""
        info, model = ctx.module, ctx.model
        for fn_info, nodes in _scopes(info):
            defs = Definitions.from_nodes(nodes)
            for node in nodes:
                if isinstance(node, ast.Call):
                    self._check_data(node, defs, ctx)
                    self._check_callables(node, info, fn_info, model, ctx)

    # -- hazard 1: unpicklable data ------------------------------------------

    def _check_data(self, call: ast.Call, defs: Definitions,
                    ctx: LintContext) -> None:
        for expr in _crossing_data(call):
            verdict = self._unpicklable(expr, defs)
            if verdict is not None:
                ctx.report(
                    self.id, expr,
                    f"{verdict} crosses a worker-pool boundary here; it "
                    "cannot be pickled — pass plain data and rebuild the "
                    "object inside the worker",
                )

    def _unpicklable(self, expr: ast.AST,
                     defs: Definitions) -> str | None:
        if isinstance(expr, ast.Lambda):
            return "a lambda"
        if isinstance(expr, ast.GeneratorExp):
            return "a generator expression"
        if isinstance(expr, ast.Name):
            value = defs.reaching(expr.id, expr.lineno)
            if isinstance(value, ast.Lambda):
                return f"{expr.id!r} (bound to a lambda)"
            if isinstance(value, ast.GeneratorExp):
                return f"{expr.id!r} (bound to a generator expression)"
            if isinstance(value, ast.Call) and \
                    _call_name(value.func) == "open":
                return f"{expr.id!r} (an open file handle)"
        return None

    # -- hazard 2: stale parent state ----------------------------------------

    def _check_callables(self, call: ast.Call, info: ModuleInfo,
                         fn_info: FunctionInfo | None, model,
                         ctx: LintContext) -> None:
        for cand in submitted_callables(call):
            if not isinstance(cand, ast.Name):
                continue
            target = model.callgraph.resolve_name(info, cand.id, fn_info)
            if target is None:
                continue
            for qualname in sorted(model.callgraph.reachable(target,
                                                             limit=200)):
                mod, reached = model.callgraph.function(qualname)
                hazards = self._module_hazards(mod)
                read = self._reads_hazard(reached, hazards)
                if read is not None:
                    ctx.report(
                        self.id, cand,
                        f"worker callable {cand.id!r} reaches "
                        f"{qualname.replace(':', '.')}(), which reads "
                        f"module global {read!r} ({mod.name}:line "
                        f"{hazards[read]}) — a mutable value mutated in "
                        "the parent process; workers see a fork-time "
                        "snapshot, so pass the state through "
                        "initargs/arguments instead",
                    )
                    return

    def _module_hazards(self, mod: ModuleInfo) -> dict[str, int]:
        """Mutable-initialized, parent-mutated globals of one module."""
        key = (id(mod), mod.name)
        cached = self._hazard_cache.get(key)
        if cached is not None:
            return cached
        mutable: dict[str, int] = {}
        for name, value in mod.top_assigns.items():
            if isinstance(value, (ast.List, ast.Dict, ast.Set,
                                  ast.ListComp, ast.SetComp, ast.DictComp)):
                mutable[name] = value.lineno
            elif isinstance(value, ast.Call) and \
                    _call_name(value.func) in _MUTABLE_CONSTRUCTORS:
                mutable[name] = value.lineno
        hazards: dict[str, int] = {}
        if mutable:
            for fn in mod.functions.values():
                for name in self._mutated_globals(fn, set(mutable)):
                    hazards[name] = mutable[name]
        self._hazard_cache[key] = hazards
        return hazards

    def _mutated_globals(self, fn: FunctionInfo,
                         candidates: set[str]) -> set[str]:
        locals_ = set(fn.arg_names)
        declared_global: set[str] = set()
        for node in fn.local_nodes:
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                locals_.add(node.id)
        visible = (candidates - locals_) | (candidates & declared_global)
        if not visible:
            return set()
        mutated: set[str] = set()
        for node in fn.local_nodes:
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATOR_METHODS and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id in visible:
                mutated.add(node.func.value.id)
            elif isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in visible:
                mutated.add(node.value.id)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store) and \
                    node.id in (candidates & declared_global):
                mutated.add(node.id)
        return mutated

    def _reads_hazard(self, fn: FunctionInfo,
                      hazards: dict[str, int]) -> str | None:
        if not hazards:
            return None
        shadowed = set(fn.arg_names)
        for node in fn.local_nodes:
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                shadowed.add(node.id)
        for node in fn.local_nodes:
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load) and \
                    node.id in hazards and node.id not in shadowed:
                return node.id
        return None


# ---------------------------------------------------------------------------
# exception-flow
# ---------------------------------------------------------------------------

_METRICS_EMITTERS = frozenset({"count", "observe", "event"})


class ExceptionFlowRule(ProjectRule):
    """Typed repro errors must reach an outcome, not vanish.

    ``silent-degrade`` and ``handler-envelope`` inspect a handler's
    own body; this rule follows the call graph, so a handler that
    delegates to ``self._reject(...)`` is clean when ``_reject``
    (transitively) writes an envelope, builds a
    :class:`~repro.runtime.outcome.DocOutcome`, re-raises, or — in
    ``repro.runtime`` — emits a metrics signal.  Handlers already
    annotated with the legacy pragmas stay silent here too: one
    reviewed boundary, one annotation.
    """

    id = "exception-flow"
    description = (
        "handlers catching typed repro errors in repro.runtime / "
        "repro.server must reach a DocOutcome, error envelope, "
        "re-raise, or metrics emission along the call graph"
    )
    scope = ("repro/runtime/", "repro/server/")

    #: Legacy per-family pragmas that already mark a reviewed boundary.
    _LEGACY_PRAGMAS = ("silent-degrade", "handler-envelope")

    def __init__(self) -> None:
        self._sink_cache: dict[tuple[int, str, bool], bool] = {}

    def check_module(self, ctx: LintContext) -> None:
        """Check every typed-error handler in the module."""
        info, model = ctx.module, ctx.model
        server_mode = "repro/server/" in info.path.replace("\\", "/")
        for fn_info, nodes in _scopes(info):
            for node in nodes:
                if not isinstance(node, ast.ExceptHandler):
                    continue
                typed = typed_caught_names(node.type)
                if not typed:
                    continue
                if any(ctx.pragmas.is_disabled(legacy, node.lineno)
                       for legacy in self._LEGACY_PRAGMAS):
                    continue
                if self._handler_reaches_sink(node, info, fn_info, model,
                                              server_mode):
                    continue
                names = ", ".join(sorted(typed))
                outcomes = "a DocOutcome or error envelope" if server_mode \
                    else "a DocOutcome, envelope, or metrics emission"
                ctx.report(
                    self.id, node,
                    f"typed error(s) {names} caught here never reach "
                    f"{outcomes} — not in this handler, and not in any "
                    "function it calls; route the failure to an outcome "
                    "or re-raise",
                )

    def _handler_reaches_sink(self, handler: ast.ExceptHandler,
                              info: ModuleInfo,
                              fn_info: FunctionInfo | None,
                              model, server_mode: bool) -> bool:
        for node in local_nodes(handler):
            if isinstance(node, ast.Raise):
                return True
            if not isinstance(node, ast.Call):
                continue
            if self._is_sink_call(node, server_mode):
                return True
            target = model.callgraph.resolve_call(info, node, fn_info)
            if target is not None and \
                    self._callee_reaches_sink(target, model, server_mode):
                return True
        return False

    def _is_sink_call(self, call: ast.Call, server_mode: bool) -> bool:
        func = call.func
        name = _call_name(func)
        if name is None:
            return False
        if "envelope" in name.lower() or "outcome" in name.lower():
            return True
        if name == "DocOutcome" or (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "DocOutcome"
        ):
            return True
        if not server_mode and isinstance(func, ast.Attribute) and \
                func.attr in _METRICS_EMITTERS:
            return True
        return False

    def _callee_reaches_sink(self, qualname: str, model,
                             server_mode: bool) -> bool:
        callgraph = model.callgraph
        key = (id(model), qualname, server_mode)
        cached = self._sink_cache.get(key)
        if cached is not None:
            return cached
        found = False
        for reached in callgraph.reachable(qualname, limit=200):
            _, fn = callgraph.function(reached)
            for node in fn.local_nodes:
                if isinstance(node, ast.Raise):
                    found = True
                elif isinstance(node, ast.Call) and \
                        self._is_sink_call(node, server_mode):
                    found = True
                if found:
                    break
            if found:
                break
        self._sink_cache[key] = found
        return found


# ---------------------------------------------------------------------------
# resource-lifecycle
# ---------------------------------------------------------------------------

#: Calls that acquire an OS-backed resource needing release.  Journal
#: writers hold an unbuffered fd whose final frames are lost if never
#: closed; threads must be joined, or a test run never exits cleanly.
_ACQUIRERS = frozenset({
    "open", "mmap", "socket", "socketpair", "create_connection",
    "Pool", "ProcessPoolExecutor", "ThreadPoolExecutor",
    "TemporaryFile", "NamedTemporaryFile", "SpooledTemporaryFile",
    "SharedMemory", "Thread", "JournalWriter",
})

#: Method names that release (or begin releasing) a resource.
_RELEASERS = frozenset({
    "close", "terminate", "join", "shutdown", "release", "stop",
    "aclose", "wait_closed", "detach",
})


class ResourceLifecycleRule(ProjectRule):
    """Acquired resources must be released in the acquiring scope.

    A pool, socket, file, or mmap bound to a local name must be
    visible leaving that scope in one of the sanctioned ways: used as
    a ``with`` context, closed by a ``close``-family call (usually in
    ``finally``), returned or yielded to the caller, stored on an
    object, or handed to another call (``closing(x)``,
    ``stack.enter_context(x)``).  Anything else leaks a descriptor —
    quietly under CPython's refcounting, loudly the day a cycle keeps
    the object alive.
    """

    id = "resource-lifecycle"
    description = (
        "pools/sockets/files/mmaps bound to a name must be released "
        "via with/close/finally or visibly transfer ownership"
    )
    scope = ("src/repro/",)

    def check_module(self, ctx: LintContext) -> None:
        """Track acquisitions and releases per scope."""
        for _fn_info, nodes in _scopes(ctx.module):
            self._check_scope(nodes, ctx)

    def _check_scope(self, nodes: list[ast.AST], ctx: LintContext) -> None:
        acquired: list[tuple[str, ast.Call]] = []
        for node in nodes:
            name_value = self._acquisition(node)
            if name_value is not None:
                acquired.append(name_value)
        if not acquired:
            return
        names = {name for name, _ in acquired}
        released: set[str] = set()
        for node in nodes:
            released |= self._releases(node, names)
            if released >= names:
                break
        for name, call in acquired:
            if name not in released:
                ctx.report(
                    self.id, call,
                    f"resource bound to {name!r} is acquired here but "
                    "never released in this scope; use 'with', close it "
                    "in 'finally', or visibly transfer ownership",
                )

    def _acquisition(self, node: ast.AST) -> tuple[str, ast.Call] | None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            return None
        if isinstance(target, ast.Name) and isinstance(value, ast.Call) \
                and _call_name(value.func) in _ACQUIRERS:
            return target.id, value
        return None

    def _releases(self, node: ast.AST, names: set[str]) -> set[str]:
        out: set[str] = set()
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    if isinstance(sub, ast.Name) and sub.id in names:
                        out.add(sub.id)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in _RELEASERS and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id in names:
                out.add(func.value.id)
            # Passing the resource *itself* to another call transfers
            # ownership (closing(x), stack.enter_context(x));
            # ``x.read()``-style uses inside an argument do not.
            for arg in list(node.args) + [k.value for k in node.keywords]:
                out |= self._direct_names(arg) & names
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) and \
                node.value is not None:
            out |= self._direct_names(node.value) & names
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, (ast.Attribute, ast.Subscript))
                   for t in node.targets):
                out |= self._direct_names(node.value) & names
        return out

    def _direct_names(self, expr: ast.AST) -> set[str]:
        """Names the expression evaluates *to* (not merely mentions)."""
        if isinstance(expr, ast.Name):
            return {expr.id}
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            out: set[str] = set()
            for element in expr.elts:
                out |= self._direct_names(element)
            return out
        if isinstance(expr, ast.Dict):
            out = set()
            for value in expr.values:
                if value is not None:
                    out |= self._direct_names(value)
            return out
        if isinstance(expr, ast.Starred):
            return self._direct_names(expr.value)
        if isinstance(expr, (ast.Await, ast.NamedExpr)):
            return self._direct_names(expr.value)
        if isinstance(expr, ast.IfExp):
            return self._direct_names(expr.body) | \
                self._direct_names(expr.orelse)
        return set()


__all__ = [
    "DeterminismFlowRule",
    "ExceptionFlowRule",
    "ResourceLifecycleRule",
    "WorkerBoundaryRule",
]
