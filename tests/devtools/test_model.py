"""The project model substrate: names, bindings, call graph, dataflow."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools.dataflow import Definitions, is_set_valued
from repro.devtools.model import (
    ProjectModel,
    build_module,
    module_name_for_path,
)


def _module(model_root, path, source):
    return build_module(path, textwrap.dedent(source), model_root)


def _model(tmp_path, **sources):
    """Build a model from ``{dotted_tail: source}`` under src/repro/."""
    model = ProjectModel(tmp_path)
    for tail, source in sources.items():
        path = str(tmp_path / "src" / "repro" /
                   Path(tail.replace(".", "/") + ".py"))
        model.add_module(_module(tmp_path, path, source))
    return model


class TestModuleNames:
    def test_src_prefix_is_dropped(self, tmp_path):
        path = tmp_path / "src" / "repro" / "runtime" / "pack.py"
        assert module_name_for_path(path, tmp_path) == "repro.runtime.pack"

    def test_package_init_collapses(self, tmp_path):
        path = tmp_path / "src" / "repro" / "server" / "__init__.py"
        assert module_name_for_path(path, tmp_path) == "repro.server"

    def test_outside_root_falls_back_to_stem(self, tmp_path):
        assert module_name_for_path("/elsewhere/scratch.py",
                                    tmp_path) == "scratch"


class TestFunctionIndex:
    def test_functions_inside_blocks_are_indexed(self, tmp_path):
        info = _module(
            tmp_path, str(tmp_path / "src" / "repro" / "core" / "leak.py"),
            """\
            import sys

            if sys.platform:
                def load(path):
                    handle = open(path)
                    return handle.read()

            try:
                import json
            except ImportError:
                def fallback():
                    return None
            """,
        )
        assert sorted(info.functions) == ["fallback", "load"]


class TestImportGraph:
    def test_relative_imports_resolve(self, tmp_path):
        model = _model(
            tmp_path,
            **{
                "core.a": "A = 1\n",
                "core.b": "from .a import A\n",
            },
        )
        assert model.modules["repro.core.b"].bindings["A"] == \
            ("symbol", "repro.core.a", "A")

    def test_package_init_resolves_against_itself(self, tmp_path):
        info = _module(
            tmp_path, str(tmp_path / "src" / "repro" / "core" / "__init__.py"),
            "from .leak import load2\nfrom ..runtime import pack\n",
        )
        assert info.name == "repro.core"
        assert info.bindings["load2"] == \
            ("symbol", "repro.core.leak", "load2")
        assert info.bindings["pack"] == ("symbol", "repro.runtime", "pack")


class TestCallGraph:
    def test_resolves_module_functions_and_methods(self, tmp_path):
        model = _model(
            tmp_path,
            **{
                "core.a": """\
                def helper(x):
                    return x


                class Walker:
                    def step(self):
                        return self._inner()

                    def _inner(self):
                        return helper(1)
                """,
            },
        )
        graph = model.callgraph
        assert graph.callees("repro.core.a:Walker.step") == \
            frozenset({"repro.core.a:Walker._inner"})
        assert graph.callees("repro.core.a:Walker._inner") == \
            frozenset({"repro.core.a:helper"})
        assert "repro.core.a:helper" in \
            graph.reachable("repro.core.a:Walker.step")

    def test_resolves_cross_module_imports(self, tmp_path):
        model = _model(
            tmp_path,
            **{
                "core.a": """\
                def helper(x):
                    return x
                """,
                "core.b": """\
                from repro.core.a import helper


                def caller():
                    return helper(2)
                """,
            },
        )
        assert model.callgraph.callees("repro.core.b:caller") == \
            frozenset({"repro.core.a:helper"})

    def test_resolves_local_instance_methods(self, tmp_path):
        model = _model(
            tmp_path,
            **{
                "core.a": """\
                class Engine:
                    def run(self):
                        return 1


                def main():
                    engine = Engine()
                    return engine.run()
                """,
            },
        )
        assert "repro.core.a:Engine.run" in \
            model.callgraph.callees("repro.core.a:main")

    def test_base_class_method_lookup(self, tmp_path):
        model = _model(
            tmp_path,
            **{
                "core.base": """\
                class Base:
                    def shared(self):
                        return 0
                """,
                "core.sub": """\
                from repro.core.base import Base


                class Sub(Base):
                    def go(self):
                        return self.shared()
                """,
            },
        )
        assert model.callgraph.callees("repro.core.sub:Sub.go") == \
            frozenset({"repro.core.base:Base.shared"})


class TestDataflow:
    def test_reaching_definitions_are_line_ordered(self):
        import ast

        tree = ast.parse(textwrap.dedent(
            """\
            x = {1}
            x = [1]
            y = x
            """
        ))
        defs = Definitions.from_nodes(list(ast.walk(tree)))
        assert isinstance(defs.reaching("x", 1), ast.Set)
        assert isinstance(defs.reaching("x", 3), ast.List)
        assert defs.reaching("missing", 3) is None

    def test_set_valuedness_follows_names_and_operators(self):
        import ast

        tree = ast.parse(textwrap.dedent(
            """\
            a = set(xs)
            b = a | {1}
            c = b.union(other)
            d = list(xs)
            """
        ))
        defs = Definitions.from_nodes(list(ast.walk(tree)))
        line = 10
        name = lambda n: ast.copy_location(  # noqa: E731
            ast.Name(id=n, ctx=ast.Load()),
            ast.parse("x", mode="eval").body,
        )
        for n, expected in (("a", True), ("b", True), ("c", True),
                            ("d", False)):
            node = name(n)
            node.lineno = line
            assert is_set_valued(node, defs) is expected, n
