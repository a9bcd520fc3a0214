"""The flow-rule families: fire + silent fixtures per rule.

Each family gets at least one *fire* fixture (the hazard, minimal) and
one *silent* fixture (the sanctioned shape of the same code).  The
fixtures of the retired ``determinism-flow`` and ``exception-flow``
rules stay, asserting the rule that now catches them (``determinism``,
and ``silent-degrade`` / ``handler-envelope``), plus the
seeded-regression check that deleting the envelope branch from a copy
of ``repro/server/app.py`` produces a finding.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

from repro.devtools import LintEngine, all_rules


def _ids(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


# ---------------------------------------------------------------------------
# determinism: set-valued names reaching order sinks
# ---------------------------------------------------------------------------


class TestDeterminismFlow:
    def test_fires_on_float_accumulation_over_set_valued_name(self, lint):
        findings = lint(
            """\
            def total(xs):
                pool = set(xs)
                acc = 0.0
                for x in pool:
                    acc += x
                return acc
            """,
            rules=["determinism"],
        )
        assert len(_ids(findings, "determinism")) == 1
        assert "'pool'" in findings[0].message

    def test_fires_on_ordered_append_and_yield(self, lint):
        findings = lint(
            """\
            def records(xs):
                seen = {x for x in xs}
                out = []
                for x in seen:
                    out.append(x)
                return out


            def stream(xs):
                seen = frozenset(xs)
                for x in seen:
                    yield x
            """,
            rules=["determinism"],
        )
        assert len(_ids(findings, "determinism")) == 2

    def test_fires_on_list_and_tuple_materialization(self, lint):
        findings = lint(
            """\
            def memo_key(config_ids):
                ids = set(config_ids)
                return tuple(ids)


            def ordered(config_ids):
                ids = set(config_ids)
                return list(ids)
            """,
            rules=["determinism"],
        )
        assert len(_ids(findings, "determinism")) == 2

    def test_silent_when_sorted_first(self, lint):
        findings = lint(
            """\
            def total(xs):
                pool = set(xs)
                acc = 0.0
                for x in sorted(pool):
                    acc += x
                return acc


            def memo_key(config_ids):
                ids = set(config_ids)
                return tuple(sorted(ids))
            """,
            rules=["determinism"],
        )
        assert findings == []

    def test_silent_without_an_order_sink(self, lint):
        findings = lint(
            """\
            def collect(xs):
                pool = set(xs)
                seen = set()
                for x in pool:
                    seen.add(x)
                return seen
            """,
            rules=["determinism"],
        )
        assert findings == []

    def test_silent_outside_the_pipeline_scope(self, lint):
        findings = lint(
            """\
            def total(xs):
                pool = set(xs)
                acc = 0.0
                for x in pool:
                    acc += x
                return acc
            """,
            rules=["determinism"],
            path="src/repro/server/snippet.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# worker-boundary
# ---------------------------------------------------------------------------


class TestWorkerBoundary:
    def test_fires_on_generator_crossing_the_boundary(self, lint):
        findings = lint(
            """\
            def run(pool, items):
                gen = (i * i for i in items)
                return pool.map(work, gen)
            """,
            rules=["worker-boundary"],
        )
        assert len(_ids(findings, "worker-boundary")) == 1
        assert "generator" in findings[0].message

    def test_fires_on_lambda_in_apply_args(self, lint):
        findings = lint(
            """\
            def run(pool, item):
                return pool.apply_async(work, (lambda x: x, item))
            """,
            rules=["worker-boundary"],
        )
        assert len(_ids(findings, "worker-boundary")) == 1
        assert "lambda" in findings[0].message

    def test_fires_on_open_file_handle_in_initargs(self, lint):
        findings = lint(
            """\
            def run(pool_cls, path):
                log = open(path, "a")
                pool = pool_cls(initializer=_init, initargs=(log,))
                return pool
            """,
            rules=["worker-boundary"],
        )
        assert len(_ids(findings, "worker-boundary")) == 1
        assert "open file handle" in findings[0].message

    def test_fires_when_worker_reads_parent_mutated_global(self, lint):
        findings = lint(
            """\
            _CACHE = {}


            def warm(key, value):
                _CACHE[key] = value


            def _work(item):
                return _CACHE.get(item, 0)


            def run(pool, items):
                return pool.map(_work, items)
            """,
            rules=["worker-boundary"],
        )
        assert len(_ids(findings, "worker-boundary")) == 1
        assert "_CACHE" in findings[0].message
        assert "fork-time snapshot" in findings[0].message

    def test_silent_on_the_sanctioned_initializer_pattern(self, lint):
        # The executor's shape: a None-initialized module global written
        # only via the pool initializer — nothing mutable crosses.
        findings = lint(
            """\
            _STATE = None


            def _init(config):
                global _STATE
                _STATE = config


            def _work(item):
                return _STATE is not None


            def run(pool, items):
                return pool.map(_work, items)
            """,
            rules=["worker-boundary"],
        )
        assert findings == []

    def test_silent_when_global_is_never_mutated(self, lint):
        findings = lint(
            """\
            _TABLE = {"a": 1}


            def _work(item):
                return _TABLE.get(item, 0)


            def run(pool, items):
                return pool.map(_work, items)
            """,
            rules=["worker-boundary"],
        )
        assert findings == []


# ---------------------------------------------------------------------------
# typed errors must reach an outcome: silent-degrade / handler-envelope
# ---------------------------------------------------------------------------

_RUNTIME = "src/repro/runtime/snippet.py"
_SERVER = "src/repro/server/snippet.py"


class TestExceptionFlow:
    """The retired exception-flow fixtures: a typed repro error caught in
    runtime/server code must re-raise or reach an outcome in the
    handler itself, which the handler-scan rules check."""

    def test_fires_when_typed_error_vanishes(self, lint):
        findings = lint(
            """\
            class PackError(Exception):
                pass


            def step(doc):
                try:
                    return doc.upper()
                except PackError:
                    return None
            """,
            rules=["silent-degrade"],
            path=_RUNTIME,
        )
        (finding,) = _ids(findings, "silent-degrade")
        assert finding.line == 8  # the PackError handler

    def test_silent_when_handler_reraises_or_emits(self, lint):
        findings = lint(
            """\
            class PackError(Exception):
                pass


            def step_a(doc):
                try:
                    return doc.upper()
                except PackError:
                    raise


            def step_b(metrics, doc):
                try:
                    return doc.upper()
                except PackError:
                    metrics.count("pack_failed")
                    return None
            """,
            rules=["silent-degrade"],
            path=_RUNTIME,
        )
        assert findings == []

    def test_fires_when_callee_has_no_sink(self, lint):
        findings = lint(
            """\
            class PackError(Exception):
                pass


            def _swallow(doc):
                return None


            def step(doc):
                try:
                    return doc.upper()
                except PackError:
                    return _swallow(doc)
            """,
            rules=["silent-degrade"],
            path=_RUNTIME,
        )
        assert len(_ids(findings, "silent-degrade")) == 1

    def test_server_mode_requires_envelope_not_metrics(self, lint):
        findings = lint(
            """\
            class RouteError(Exception):
                pass


            def handle_a(metrics, request):
                try:
                    return request.route()
                except RouteError:
                    metrics.count("route_failed")
                    return None


            def handle_b(writer, request):
                try:
                    return request.route()
                except RouteError as exc:
                    return write_error_envelope(writer, exc)
            """,
            rules=["handler-envelope"],
            path=_SERVER,
        )
        flagged = _ids(findings, "handler-envelope")
        assert len(flagged) == 1
        assert flagged[0].line < 12  # handle_a's handler, not handle_b's

    def test_honors_legacy_silent_degrade_pragma(self, lint):
        findings = lint(
            """\
            class PackError(Exception):
                pass


            def step(doc):
                try:
                    return doc.upper()
                except PackError:  # lint: disable=silent-degrade
                    return None
            """,
            rules=["silent-degrade"],
            path=_RUNTIME,
        )
        assert findings == []


REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSeededRegression:
    """Deleting the envelope branch from a copy of the real server must
    produce a handler-envelope finding — the rule guards the tree it
    ships with, not just synthetic fixtures."""

    def _lint_copy(self, tmp_path, mutate):
        app_src = REPO_ROOT / "src" / "repro" / "server" / "app.py"
        target_dir = tmp_path / "src" / "repro" / "server"
        target_dir.mkdir(parents=True)
        target = target_dir / "app.py"
        shutil.copyfile(app_src, target)
        handler_line = self._delete_envelope_branch(target) if mutate \
            else None
        engine = LintEngine(all_rules(["handler-envelope"]),
                            project_root=tmp_path)
        return engine.lint_paths([target]), handler_line

    def _delete_envelope_branch(self, target: Path) -> int:
        source = target.read_text(encoding="utf-8")
        tree = ast.parse(source)
        handler = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and isinstance(node.type, ast.Name)
            and node.type.id == "EnvelopeError"
        )
        lines = source.splitlines(keepends=True)
        start = handler.body[0].lineno - 1
        end = handler.body[-1].end_lineno
        indent = lines[start][: len(lines[start]) - len(
            lines[start].lstrip())]
        lines[start:end] = [f"{indent}pass\n"]
        target.write_text("".join(lines), encoding="utf-8")
        return handler.lineno

    def test_pristine_copy_is_clean(self, tmp_path):
        findings, _ = self._lint_copy(tmp_path, mutate=False)
        assert _ids(findings, "handler-envelope") == []

    def test_mutated_copy_fires(self, tmp_path):
        findings, handler_line = self._lint_copy(tmp_path, mutate=True)
        flagged = _ids(findings, "handler-envelope")
        assert [f.line for f in flagged] == [handler_line]


# ---------------------------------------------------------------------------
# resource-lifecycle
# ---------------------------------------------------------------------------


class TestResourceLifecycle:
    def test_fires_on_leaked_file_handle(self, lint):
        findings = lint(
            """\
            def load(path):
                handle = open(path)
                data = handle.read()
                return data
            """,
            rules=["resource-lifecycle"],
        )
        assert len(_ids(findings, "resource-lifecycle")) == 1
        assert "'handle'" in findings[0].message

    def test_fires_on_leaked_pool(self, lint):
        findings = lint(
            """\
            def run(items):
                pool = Pool(processes=2)
                return pool.map(work, items)
            """,
            rules=["resource-lifecycle"],
        )
        assert len(_ids(findings, "resource-lifecycle")) == 1

    def test_fires_on_leaked_shared_memory(self, lint):
        findings = lint(
            """\
            def attach(name):
                shm = SharedMemory(name=name)
                return bytes(shm.buf)
            """,
            rules=["resource-lifecycle"],
        )
        assert len(_ids(findings, "resource-lifecycle")) == 1
        assert "'shm'" in findings[0].message

    def test_fires_on_leaked_mmap(self, lint):
        findings = lint(
            """\
            def attach(fh):
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                return mapped[0:16]
            """,
            rules=["resource-lifecycle"],
        )
        assert len(_ids(findings, "resource-lifecycle")) == 1
        assert "'mapped'" in findings[0].message

    def test_silent_on_closed_mmap(self, lint):
        findings = lint(
            """\
            def attach(fh):
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                try:
                    return bytes(mapped)
                finally:
                    mapped.close()
            """,
            rules=["resource-lifecycle"],
        )
        assert findings == []

    def test_silent_on_closed_shared_memory(self, lint):
        findings = lint(
            """\
            def attach(name):
                shm = SharedMemory(name=name)
                try:
                    return bytes(shm.buf)
                finally:
                    shm.close()
            """,
            rules=["resource-lifecycle"],
        )
        assert findings == []

    def test_silent_with_context_manager(self, lint):
        findings = lint(
            """\
            def load(path):
                handle = open(path)
                with handle:
                    return handle.read()


            def load_direct(path):
                with open(path) as handle:
                    return handle.read()
            """,
            rules=["resource-lifecycle"],
        )
        assert findings == []

    def test_silent_with_close_in_finally(self, lint):
        findings = lint(
            """\
            def run(items):
                pool = Pool(processes=2)
                try:
                    return pool.map(work, items)
                finally:
                    pool.terminate()
            """,
            rules=["resource-lifecycle"],
        )
        assert findings == []

    def test_silent_on_ownership_transfer(self, lint):
        findings = lint(
            """\
            def acquire(path):
                handle = open(path)
                return handle


            def register(stack, path):
                handle = open(path)
                return stack.enter_context(handle)


            class Holder:
                def attach(self, path):
                    handle = open(path)
                    self._handle = handle
            """,
            rules=["resource-lifecycle"],
        )
        assert findings == []

    def test_fires_on_leaked_journal_writer(self, lint):
        # The durability handle: an unbuffered journal fd left open
        # loses its final frames — the exact crash-window the WAL
        # exists to close.
        findings = lint(
            """\
            def record(path, records):
                journal = JournalWriter(path, meta={})
                for record in records:
                    journal.append(record, "digest")
            """,
            rules=["resource-lifecycle"],
        )
        assert len(_ids(findings, "resource-lifecycle")) == 1
        assert "'journal'" in findings[0].message

    def test_fires_on_leaked_scrub_thread(self, lint):
        findings = lint(
            """\
            def watch(path, records):
                journal = JournalWriter(path, meta={})
                worker = Thread(target=journal.append, args=records)
                worker.start()
            """,
            rules=["resource-lifecycle"],
        )
        flagged = _ids(findings, "resource-lifecycle")
        assert len(flagged) == 2
        assert any("'journal'" in f.message for f in flagged)
        assert any("'worker'" in f.message for f in flagged)

    def test_silent_on_closed_journal_and_stopped_scrubber(self, lint):
        findings = lint(
            """\
            def record(path, records):
                journal = JournalWriter(path, meta={})
                try:
                    for record in records:
                        journal.append(record, "digest")
                finally:
                    journal.close()


            def run_joined(fn):
                worker = Thread(target=fn)
                worker.start()
                worker.join()


            class Supervisor:
                def start(self, fn):
                    worker = Thread(target=fn, daemon=True)
                    self._worker = worker
            """,
            rules=["resource-lifecycle"],
        )
        assert findings == []

    def test_silent_outside_src(self, lint):
        findings = lint(
            """\
            def load(path):
                handle = open(path)
                return handle.read()
            """,
            rules=["resource-lifecycle"],
            path="tests/test_snippet.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# the runtime and server subtrees stay clean under the flow rules
# ---------------------------------------------------------------------------


class TestFlowRulesOnRealTree:
    @pytest.mark.parametrize("subtree", ["runtime", "server"])
    def test_real_subtree_is_clean_under_flow_rules(self, subtree):
        engine = LintEngine(
            all_rules(["determinism", "worker-boundary", "silent-degrade",
                       "handler-envelope", "resource-lifecycle"]),
            project_root=REPO_ROOT,
        )
        findings = engine.lint_paths([REPO_ROOT / "src" / "repro" / subtree])
        assert findings == []
