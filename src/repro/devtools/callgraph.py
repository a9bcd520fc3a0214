"""A conservative call graph over the project model.

Resolution is deliberately modest — exactly the cases that are static
facts of the AST, nothing speculative:

* direct calls to names bound in the same module (top-level functions,
  classes → ``__init__``) or imported from another module in the run;
* ``module.attr(...)`` through an ``import module [as alias]`` binding;
* ``self.method(...)`` / ``cls.method(...)`` within a class, following
  statically-known base classes in the model;
* ``ClassName.method(...)`` and ``instance.method(...)`` where the
  instance was assigned ``ClassName(...)`` in the same scope.

Anything else resolves to ``None`` and downstream analyses treat it as
unknown.  Global qualnames are ``module:Class.method`` /
``module:function``.
"""

from __future__ import annotations

import ast

from .model import FunctionInfo, ModuleInfo, ProjectModel


class CallGraph:
    """Caller → callee edges between the model's functions."""

    def __init__(self, model: ProjectModel):
        self.model = model
        self._functions: dict[str, tuple[ModuleInfo, FunctionInfo]] = {}
        for info in model.modules.values():
            for fn_info in info.functions.values():
                self._functions[f"{info.name}:{fn_info.qualname}"] = (
                    info, fn_info
                )
        self._edges: dict[str, frozenset[str]] = {}
        self._instance_types: dict[int, dict[str, str]] = {}

    def function(self, qualname: str) -> tuple[ModuleInfo, FunctionInfo]:
        """The ``(module, function)`` pair behind a global qualname."""
        return self._functions[qualname]

    def callees(self, qualname: str) -> frozenset[str]:
        """Resolved callees of one function (cached)."""
        cached = self._edges.get(qualname)
        if cached is not None:
            return cached
        info, fn_info = self._functions[qualname]
        out = set()
        for node in fn_info.local_nodes:
            if isinstance(node, ast.Call):
                target = self.resolve_call(info, node, fn_info)
                if target is not None:
                    out.add(target)
        resolved = frozenset(out)
        self._edges[qualname] = resolved
        return resolved

    def reachable(self, qualname: str, limit: int = 500) -> set[str]:
        """Functions transitively callable from ``qualname`` (bounded)."""
        seen: set[str] = set()
        stack = [qualname]
        while stack and len(seen) < limit:
            current = stack.pop()
            if current in seen or current not in self._functions:
                continue
            seen.add(current)
            stack.extend(self.callees(current))
        return seen

    # -- resolution ----------------------------------------------------------

    def resolve_call(
        self,
        info: ModuleInfo,
        call: ast.Call,
        fn_info: FunctionInfo | None = None,
    ) -> str | None:
        """The global qualname this call dispatches to, if static."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_name(info, func.id, fn_info)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(info, func, fn_info)
        return None

    def resolve_name(
        self,
        info: ModuleInfo,
        name: str,
        fn_info: FunctionInfo | None = None,
    ) -> str | None:
        """Resolve a bare name to a function/constructor qualname."""
        if fn_info is not None:
            nested = f"{fn_info.qualname}.{name}"
            if nested in info.functions:
                return f"{info.name}:{nested}"
        if name in info.functions:
            return f"{info.name}:{name}"
        if name in info.classes:
            return self._constructor(info.name, name)
        binding = info.bindings.get(name)
        if binding is None:
            return None
        return self._resolve_binding(binding)

    def _resolve_binding(self, binding: tuple) -> str | None:
        if binding[0] == "module":
            return None  # a module object, not a callable
        _, module_name, symbol = binding
        target = self.model.modules.get(module_name)
        if target is None:
            # ``from pkg import name`` may re-export through __init__.
            return None
        if symbol in target.functions:
            return f"{target.name}:{symbol}"
        if symbol in target.classes:
            return self._constructor(target.name, symbol)
        return None

    def _constructor(self, module_name: str, class_name: str) -> str | None:
        method = self._find_method(module_name, class_name, "__init__")
        if method is not None:
            return method
        return None

    def _resolve_attribute(
        self,
        info: ModuleInfo,
        func: ast.Attribute,
        fn_info: FunctionInfo | None,
    ) -> str | None:
        base = func.value
        if not isinstance(base, ast.Name):
            return None
        if base.id in ("self", "cls") and fn_info is not None and \
                fn_info.class_name is not None:
            return self._find_method(info.name, fn_info.class_name, func.attr)
        binding = info.bindings.get(base.id)
        if binding is not None and binding[0] == "module":
            target = self.model.modules.get(binding[1])
            if target is not None:
                if func.attr in target.functions:
                    return f"{target.name}:{func.attr}"
                if func.attr in target.classes:
                    return self._constructor(target.name, func.attr)
            return None
        # ClassName.method(...)
        class_site = self._resolve_class_name(info, base.id)
        if class_site is not None:
            return self._find_method(class_site[0], class_site[1], func.attr)
        # instance.method(...) where instance = ClassName(...) locally
        if fn_info is not None:
            types = self._scope_instance_types(info, fn_info)
            class_name = types.get(base.id)
            if class_name is not None:
                class_site = self._resolve_class_name(info, class_name)
                if class_site is not None:
                    return self._find_method(
                        class_site[0], class_site[1], func.attr
                    )
        return None

    def _resolve_class_name(
        self, info: ModuleInfo, name: str
    ) -> tuple[str, str] | None:
        """``(module_name, class_name)`` for a name visible in ``info``."""
        if name in info.classes:
            return (info.name, name)
        binding = info.bindings.get(name)
        if binding is not None and binding[0] == "symbol":
            target = self.model.modules.get(binding[1])
            if target is not None and binding[2] in target.classes:
                return (target.name, binding[2])
        return None

    def _find_method(
        self, module_name: str, class_name: str, method: str
    ) -> str | None:
        """Look a method up through the statically-known base chain."""
        seen: set[tuple[str, str]] = set()
        stack = [(module_name, class_name)]
        while stack:
            mod_name, cls_name = stack.pop()
            if (mod_name, cls_name) in seen:
                continue
            seen.add((mod_name, cls_name))
            info = self.model.modules.get(mod_name)
            if info is None:
                continue
            methods = info.class_methods.get(cls_name, {})
            if method in methods:
                return f"{mod_name}:{methods[method].qualname}"
            for base in info.class_bases.get(cls_name, ()):
                base_site = self._resolve_class_name(info, base)
                if base_site is not None:
                    stack.append(base_site)
        return None

    def _scope_instance_types(
        self, info: ModuleInfo, fn_info: FunctionInfo
    ) -> dict[str, str]:
        """Local names assigned ``ClassName(...)`` in this function."""
        cached = self._instance_types.get(id(fn_info))
        if cached is not None:
            return cached
        types: dict[str, str] = {}
        for node in fn_info.local_nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    isinstance(node.value, ast.Call) and \
                    isinstance(node.value.func, ast.Name):
                callee = node.value.func.id
                if self._resolve_class_name(info, callee) is not None:
                    types[node.targets[0].id] = callee
                else:
                    types.pop(node.targets[0].id, None)
        self._instance_types[id(fn_info)] = types
        return types


__all__ = ["CallGraph"]
