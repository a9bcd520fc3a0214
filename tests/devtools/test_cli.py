"""The ``repro lint`` subcommand: exit codes, formats, scratch files."""

# The scratch-file fixtures deliberately cite nonexistent definitions.
# lint: disable-file=definition-xref

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools import RULE_CLASSES

from .conftest import MINI_DESIGN


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def scratch_root(tmp_path):
    """A throwaway project with a catalogue, for scratch-file linting."""
    (tmp_path / "DESIGN.md").write_text(MINI_DESIGN, encoding="utf-8")
    return tmp_path


def write_scratch(root, source, name="scratch.py"):
    path = root / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


class TestLintExitCodes:
    def test_clean_file_exits_zero(self, scratch_root):
        path = write_scratch(scratch_root, "X = 1\n")
        code, output = run(["lint", path])
        assert code == 0
        assert "clean (0 findings)" in output

    def test_broken_index_guard_fails_with_rule_and_location(
        self, scratch_root
    ):
        path = write_scratch(
            scratch_root,
            """\
            def depth(concept, index=None):
                return index.depth(concept)
            """,
        )
        code, output = run(["lint", path])
        assert code == 1
        assert "[index-parity]" in output
        assert f"{path}:2:" in output

    def test_nonexistent_definition_fails_with_rule_and_location(
        self, scratch_root
    ):
        path = write_scratch(
            scratch_root,
            '''\
            def combine(a: float, b: float) -> float:
                """Implements Definition 99."""
                return a + b
            ''',
        )
        code, output = run(["lint", path])
        assert code == 1
        assert "[definition-xref]" in output
        assert f"{path}:2:" in output

    def test_missing_path_errors_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            run(["lint", str(tmp_path / "nowhere.py")])


class TestLintOptions:
    def test_json_format_parses_and_carries_findings(self, scratch_root):
        path = write_scratch(
            scratch_root,
            """\
            def f(acc=[]):
                pass
            """,
        )
        code, output = run(["lint", path, "--format", "json"])
        assert code == 1
        payload = json.loads(output)
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "mutable-default"
        assert finding["path"] == path
        assert finding["line"] == 1

    def test_rules_filter_limits_the_rule_set(self, scratch_root):
        path = write_scratch(
            scratch_root,
            """\
            try:
                pass
            except Exception:
                pass
            """,
        )
        code, output = run(["lint", path, "--rules", "mutable-default"])
        assert code == 0
        assert "clean" in output
        code, output = run(["lint", path, "--rules", "broad-except"])
        assert code == 1
        assert "[broad-except]" in output

    def test_unknown_rule_filter_errors_loudly(self, scratch_root):
        path = write_scratch(scratch_root, "X = 1\n")
        with pytest.raises(SystemExit, match="unknown rule IDs"):
            run(["lint", path, "--rules", "no-such-rule"])

    def test_list_rules_names_every_registered_rule(self):
        code, output = run(["lint", "--list-rules"])
        assert code == 0
        for rule_id in RULE_CLASSES:
            assert rule_id in output

    def test_directory_argument_recurses(self, scratch_root):
        pkg = scratch_root / "pkg"
        pkg.mkdir()
        write_scratch(pkg, "def f(acc=[]):\n    pass\n", name="a.py")
        write_scratch(pkg, "X = 1\n", name="b.py")
        code, output = run(["lint", str(pkg)])
        assert code == 1
        assert "[mutable-default]" in output
        assert "1 finding in 1 file" in output


class TestMergedTreeContract:
    def test_src_and_tests_lint_clean(self):
        """The merge gate: the shipped tree has zero findings over the
        roots CI lints (``repro lint``'s default)."""
        roots = ["src", "tests", "benchmarks", "examples"]
        if not all(Path(root).is_dir() for root in roots):
            pytest.skip("not running from the repository root")
        code, output = run(["lint", *roots, "--format", "json"])
        assert code == 0, output
        assert json.loads(output) == {"count": 0, "findings": []}
