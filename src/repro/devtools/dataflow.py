"""Intra-procedural dataflow for reprolint.

* **Reaching definitions** (:class:`Definitions`) — a line-ordered
  approximation good enough to answer "what expression did this name
  last come from?" inside one scope; the determinism and
  worker-boundary rules use it to type names as set-valued or
  unpicklable.
* **Submission points** (:func:`submitted_callables`) — what a pool
  boundary looks like, for the worker-boundary rule.
* **Set-valuedness** (:func:`is_set_valued`) and
  :data:`MUTATOR_METHODS`, shared by the determinism, cache-purity and
  worker-boundary rules.
"""

from __future__ import annotations

import ast
import re

# -- submission-point detection ----------------------------------------------

SUBMIT_METHODS = frozenset({
    "map", "map_async", "imap", "imap_unordered", "starmap",
    "starmap_async", "apply", "apply_async", "submit",
})
SUBMIT_KEYWORDS = frozenset({"initializer", "callback"})
POOL_RECEIVER = re.compile(r"pool|executor", re.IGNORECASE)


def is_pool_receiver(receiver: ast.AST) -> bool:
    """Whether the call receiver names a pool/executor."""
    if isinstance(receiver, ast.Name):
        return bool(POOL_RECEIVER.search(receiver.id))
    if isinstance(receiver, ast.Attribute):
        return bool(POOL_RECEIVER.search(receiver.attr))
    return False


def submitted_callables(node: ast.Call) -> list[ast.AST]:
    """Callable expressions crossing a worker boundary at this call."""
    out: list[ast.AST] = []
    if isinstance(node.func, ast.Attribute) and \
            node.func.attr in SUBMIT_METHODS and node.args and \
            is_pool_receiver(node.func.value):
        out.append(node.args[0])
    for keyword in node.keywords:
        if keyword.arg in SUBMIT_KEYWORDS:
            out.append(keyword.value)
    return out


# -- reaching definitions ----------------------------------------------------


class Definitions:
    """Line-ordered reaching definitions for one scope.

    ``reaching(name, line)`` returns the value expression of the latest
    binding of ``name`` at or before ``line``, or ``None`` when the
    name is unbound / bound by something we cannot evaluate (loop
    targets, ``with`` targets, tuple unpacking).
    """

    def __init__(self) -> None:
        self._defs: dict[str, list[tuple[int, ast.expr | None]]] = {}

    @classmethod
    def from_nodes(cls, nodes: list[ast.AST]) -> "Definitions":
        """Scan one scope's local nodes for name bindings."""
        defs = cls()
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    defs._bind_target(target, node.value, node.lineno)
            elif isinstance(node, ast.AnnAssign):
                defs._bind_target(node.target, node.value, node.lineno)
            elif isinstance(node, ast.NamedExpr):
                defs._bind_target(node.target, node.value, node.lineno)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                defs._bind_target(node.target, None, node.lineno)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        defs._bind_target(item.optional_vars, None,
                                          node.lineno)
        for name in defs._defs:
            defs._defs[name].sort(key=lambda entry: entry[0])
        return defs

    def _bind_target(self, target: ast.AST, value: ast.expr | None,
                     line: int) -> None:
        if isinstance(target, ast.Name):
            self._defs.setdefault(target.id, []).append((line, value))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, None, line)

    def reaching(self, name: str, line: int) -> ast.expr | None:
        """Latest known value of ``name`` at ``line`` (or None)."""
        best: ast.expr | None = None
        found = False
        for def_line, value in self._defs.get(name, ()):
            if def_line <= line:
                best, found = value, True
            else:
                break
        return best if found else None


_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


def is_set_valued(expr: ast.AST, defs: Definitions | None = None,
                  depth: int = 0) -> bool:
    """Whether ``expr`` statically evaluates to a set/frozenset."""
    if depth > 6:
        return False
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return is_set_valued(func.value, defs, depth + 1)
        return False
    if isinstance(expr, ast.BinOp) and \
            isinstance(expr.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
        return is_set_valued(expr.left, defs, depth + 1) or \
            is_set_valued(expr.right, defs, depth + 1)
    if isinstance(expr, ast.Name) and defs is not None:
        value = defs.reaching(expr.id, expr.lineno)
        if value is not None:
            return is_set_valued(value, defs, depth + 1)
    return False


# -- mutation ----------------------------------------------------------------

MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "sort", "reverse", "add", "discard", "update", "setdefault",
})


__all__ = [
    "Definitions",
    "MUTATOR_METHODS",
    "POOL_RECEIVER",
    "SUBMIT_KEYWORDS",
    "SUBMIT_METHODS",
    "is_pool_receiver",
    "is_set_valued",
    "submitted_callables",
]
