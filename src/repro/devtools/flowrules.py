"""The flow rules: project-model analyses over the whole program.

Three rule families that cannot be written as single-node AST
visits — each one consults the
:class:`~repro.devtools.model.ProjectModel`'s scopes, call graph, or
reaching definitions:

* **determinism** — the pipeline must not read hidden
  nondeterministic inputs (unseeded ``random``, wall-clock time,
  ``os.environ``, iteration directly over a set expression), and a
  set-valued *name* (tracked through reaching definitions) must not
  feed an order-sensitive sink: float accumulation, ordered output
  records, or memo-key construction.  The first half is a per-node
  visit (``for x in {…}``); the second catches
  ``s = set(…); … for x in s``.
* **worker-boundary** — what crosses a pool submission boundary must
  pickle: no lambda or locally-defined function as the submitted
  callable, and no lambda, generator, or open file handle reaching
  the argument tuple.  The submitted callable must also not read
  module globals that the parent process initializes mutable and
  mutates — fork-time snapshots of such state are silently stale in
  workers.  The sanctioned pattern (``_WORKER_X = None`` at module
  level, written only by the pool initializer) stays silent because
  the parent-side value is immutable.
* **resource-lifecycle** — pools, sockets, files and mmaps bound to a
  local name must be released in the same scope (``with``, a
  ``close``-family call, usually in ``finally``) unless ownership
  visibly transfers (returned, yielded, stored on an object, or
  passed to another call).
"""

from __future__ import annotations

import ast

from .dataflow import (
    Definitions,
    MUTATOR_METHODS,
    is_pool_receiver,
    is_set_valued,
    submitted_callables,
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
# determinism
# ---------------------------------------------------------------------------

_CLOCK_ATTRS = frozenset({"time", "time_ns", "localtime", "ctime"})
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

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


class DeterminismRule(ProjectRule):
    """The pipeline must be a pure function of its inputs.

    The ten-dataset evaluation is replayable only if ``repro.core``,
    ``repro.similarity`` and ``repro.semnet`` never consult hidden
    nondeterministic inputs: the unseeded ``random`` module API,
    wall-clock time, ``os.environ``, or the iteration order of a set
    (``random.Random(seed)`` instances are explicitly allowed — that is
    the sanctioned randomness).  Set order is caught twice over: a loop
    or comprehension directly over a set expression, and — through
    reaching definitions — a set-valued name whose ``for`` loop
    accumulates floats, appends to an output record, or yields, or
    that a ``list``/``tuple``/``sum``/``join`` materializes outside a
    ``sorted(...)``.
    """

    id = "determinism"
    description = (
        "no unseeded random, wall-clock time, os.environ, or "
        "set-order-dependent iteration (also through set-valued names "
        "feeding float accumulation, ordered output, or memo keys) in "
        "the deterministic pipeline"
    )
    scope = ("repro/core/", "repro/similarity/", "repro/semnet/")

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag unseeded-RNG / clock / environment calls."""
        func = node.func
        if not isinstance(func, ast.Attribute) or \
                not isinstance(func.value, ast.Name):
            return
        module, attr = func.value.id, func.attr
        if module == "random" and attr not in ("Random", "SystemRandom"):
            ctx.report(
                self.id, node,
                f"random.{attr}() uses the shared unseeded RNG; "
                "thread a random.Random(seed) instance instead",
            )
        elif module == "time" and attr in _CLOCK_ATTRS:
            ctx.report(
                self.id, node,
                f"time.{attr}() makes pipeline output depend on the "
                "wall clock; pass timestamps in explicitly",
            )
        elif module == "datetime" and attr in _DATETIME_ATTRS:
            ctx.report(
                self.id, node,
                f"datetime.{attr}() makes pipeline output depend on the "
                "wall clock; pass timestamps in explicitly",
            )
        elif module == "os" and attr == "getenv":
            ctx.report(
                self.id, node,
                "os.getenv() reads hidden configuration; thread settings "
                "through XSDFConfig instead",
            )

    def visit_Attribute(self, node: ast.Attribute, ctx: LintContext) -> None:
        """Flag ``os.environ`` access."""
        if isinstance(node.value, ast.Name) and node.value.id == "os" \
                and node.attr == "environ":
            ctx.report(
                self.id, node,
                "os.environ reads hidden configuration; thread settings "
                "through XSDFConfig instead",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: LintContext) -> None:
        """Flag importing unseeded-random / clock names directly."""
        if node.module == "random":
            bad = [a.name for a in node.names
                   if a.name not in ("Random", "SystemRandom")]
            if bad:
                ctx.report(
                    self.id, node,
                    f"from random import {', '.join(bad)} pulls in the "
                    "shared unseeded RNG; import Random and seed it",
                )
        elif node.module == "time":
            bad = [a.name for a in node.names if a.name in _CLOCK_ATTRS]
            if bad:
                ctx.report(
                    self.id, node,
                    f"from time import {', '.join(bad)} leaks the wall "
                    "clock into the deterministic pipeline",
                )

    def visit_For(self, node: ast.For, ctx: LintContext) -> None:
        """Flag iteration directly over a set expression."""
        self._check_iter(node.iter, ctx)

    def visit_comprehension(self, node, ctx: LintContext) -> None:
        """Flag comprehension iteration directly over a set expression."""
        self._check_iter(node.iter, ctx)

    def _check_iter(self, iter_expr: ast.AST, ctx: LintContext) -> None:
        if is_set_valued(iter_expr):
            ctx.report(
                self.id, iter_expr,
                "iterating a set has no guaranteed order; iterate "
                "sorted(...) or a list to keep results replayable",
            )

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

    Three hazards at every submission point, all from one
    :func:`~repro.devtools.dataflow.submitted_callables` pass per call:

    1. a submitted *callable* that is a lambda or a function defined
       inside the submitting function — ``multiprocessing`` pickles
       the callable by reference, so both fail with an opaque
       ``PicklingError``, on some platforms only under load;
    2. a *data* argument that is (or reaches, via a local definition)
       a lambda, generator expression, or open file handle — those
       fail to pickle the same way;
    3. a submitted callable that — transitively, along the call
       graph — reads a module global initialized to a mutable value
       and mutated by parent-side code: workers see a fork-time
       snapshot, so parent mutations silently never arrive.
    """

    id = "worker-boundary"
    description = (
        "no lambdas or locally-defined functions at pool submission "
        "points, values crossing the boundary must pickle, and "
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
            # Module-level functions pickle by reference; only defs
            # nested in a function body cannot.
            local_defs = set() if fn_info is None else {
                node.name for node in nodes
                if isinstance(node, _FUNCTION_NODES)
            }
            for node in nodes:
                if isinstance(node, ast.Call):
                    self._check_data(node, defs, ctx)
                    self._check_callables(node, info, fn_info, local_defs,
                                          model, ctx)

    # -- hazard 2: unpicklable data ------------------------------------------

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

    # -- hazards 1 and 3: the submitted callables ---------------------------

    def _check_callables(self, call: ast.Call, info: ModuleInfo,
                         fn_info: FunctionInfo | None,
                         local_defs: set[str], model,
                         ctx: LintContext) -> None:
        stale_reported = False
        for cand in submitted_callables(call):
            if isinstance(cand, ast.Lambda):
                ctx.report(
                    self.id, cand,
                    "lambda passed to a worker-pool submission point; "
                    "lambdas do not pickle — use a module-level function",
                )
                continue
            if not isinstance(cand, ast.Name):
                continue
            if cand.id in local_defs:
                ctx.report(
                    self.id, cand,
                    f"locally-defined function {cand.id!r} passed "
                    "to a worker-pool submission point; local "
                    "functions do not pickle — move it to module level",
                )
            if not stale_reported:
                stale_reported = self._check_stale_state(
                    cand, info, fn_info, model, ctx
                )

    def _check_stale_state(self, cand: ast.Name, info: ModuleInfo,
                           fn_info: FunctionInfo | None, model,
                           ctx: LintContext) -> bool:
        """Report the first parent-mutated global ``cand`` reaches."""
        target = model.callgraph.resolve_name(info, cand.id, fn_info)
        if target is None:
            return False
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
                return True
        return False

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
    "DeterminismRule",
    "ResourceLifecycleRule",
    "WorkerBoundaryRule",
]
