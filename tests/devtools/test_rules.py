"""Per-rule fixture battery: each rule fires on a violation and stays
silent on the sanctioned shape right next to it."""

# The fixture snippets below deliberately cite nonexistent definitions.
# lint: disable-file=definition-xref

from __future__ import annotations

from repro.devtools import LintEngine, all_rules

SIM_PATH = "src/repro/similarity/snippet.py"
RUNTIME_PATH = "src/repro/runtime/snippet.py"
CORE_PATH = "src/repro/core/snippet.py"
SERVER_PATH = "src/repro/server/snippet.py"


def rules_of(findings):
    return [f.rule for f in findings]


class TestIndexParity:
    def test_fires_on_unguarded_deref(self, lint):
        findings = lint(
            """\
            def depth(concept, index=None):
                return index.depth(concept)
            """,
            rules=["index-parity"],
        )
        (finding,) = findings
        assert finding.rule == "index-parity"
        assert finding.line == 2
        assert "is not None" in finding.message

    def test_fires_when_guard_has_no_fallback(self, lint):
        findings = lint(
            """\
            def depth(network, concept, index=None):
                if index is not None:
                    return index.depth(concept)
            """,
            rules=["index-parity"],
        )
        (finding,) = findings
        assert finding.rule == "index-parity"
        assert "fallback" in finding.message

    def test_silent_on_guarded_fast_path_with_fallback(self, lint):
        assert lint(
            """\
            def depth(network, concept, index=None):
                if index is not None:
                    return index.depth(concept)
                return len(network.path_to_root(concept))
            """,
            rules=["index-parity"],
        ) == []

    def test_silent_on_is_none_early_fallback(self, lint):
        assert lint(
            """\
            def depth(network, concept, index=None):
                if index is None:
                    return len(network.path_to_root(concept))
                return index.depth(concept)
            """,
            rules=["index-parity"],
        ) == []

    def test_silent_on_required_index_param(self, lint):
        # A pytest fixture / positional integer named `index` is not the
        # packed-index contract and must not trip the rule.
        assert lint(
            """\
            def test_search(index):
                assert index.documents("film")
            """,
            rules=["index-parity"],
            path="tests/applications/snippet.py",
        ) == []

    def test_fires_on_unguarded_self_index(self, lint):
        findings = lint(
            """\
            class Measure:
                def __call__(self, a, b):
                    return self._index.lcs(a, b)
            """,
            rules=["index-parity"],
        )
        assert rules_of(findings) == ["index-parity"]

    def test_silent_on_index_pass_through(self, lint):
        assert lint(
            """\
            class Measure:
                def __init__(self, network, index=None):
                    self._network = network
                    self._index = index
            """,
            rules=["index-parity"],
        ) == []

    def test_tracks_alias_of_self_index(self, lint):
        assert lint(
            """\
            class Measure:
                def __call__(self, a, b):
                    index = self._index
                    if index is None:
                        return self._walk(a, b)
                    return index.lcs(a, b)
            """,
            rules=["index-parity"],
        ) == []

    def test_fires_on_unguarded_packed_deref(self, lint):
        # The PackedIndex fast path (self._packed) carries the same
        # guard + fallback contract as the dict index.
        findings = lint(
            """\
            class Measure:
                def __call__(self, a, b):
                    return self._packed.pair_terms(a, b)
            """,
            rules=["index-parity"],
        )
        assert rules_of(findings) == ["index-parity"]

    def test_tracks_alias_of_self_packed_with_fallback(self, lint):
        assert lint(
            """\
            class Measure:
                def __call__(self, a, b):
                    packed = self._packed
                    if packed is not None:
                        return packed.pair_terms(a, b)
                    return self._walk(a, b)
            """,
            rules=["index-parity"],
        ) == []


class TestCachePurity:
    def test_fires_on_parameter_mutation(self, lint):
        findings = lint(
            """\
            def score(tokens):
                tokens.append("pad")
                return len(tokens)
            """,
            rules=["cache-purity"], path=SIM_PATH,
        )
        (finding,) = findings
        assert finding.rule == "cache-purity"
        assert "'tokens'" in finding.message

    def test_fires_on_subscript_store_into_parameter(self, lint):
        findings = lint(
            """\
            def score(table, key):
                table[key] = 1.0
            """,
            rules=["cache-purity"], path=RUNTIME_PATH,
        )
        assert rules_of(findings) == ["cache-purity"]

    def test_fires_on_global_reassignment(self, lint):
        findings = lint(
            """\
            _CACHE = None

            def warm():
                global _CACHE
                _CACHE = {}
            """,
            rules=["cache-purity"], path=RUNTIME_PATH,
        )
        (finding,) = findings
        assert finding.rule == "cache-purity"
        assert "_CACHE" in finding.message

    def test_silent_on_copied_then_mutated_local(self, lint):
        # Rebinding the name first makes the mutation local, not shared.
        assert lint(
            """\
            def score(tokens):
                tokens = list(tokens)
                tokens.append("pad")
                return len(tokens)
            """,
            rules=["cache-purity"], path=SIM_PATH,
        ) == []

    def test_silent_on_self_mutation(self, lint):
        assert lint(
            """\
            class Cache:
                def put(self, key, value):
                    self._data[key] = value
            """,
            rules=["cache-purity"], path=RUNTIME_PATH,
        ) == []


class TestDeterminism:
    def test_fires_on_unseeded_random(self, lint):
        findings = lint(
            """\
            import random

            def jitter(x):
                return x + random.random()
            """,
            rules=["determinism"], path=CORE_PATH,
        )
        (finding,) = findings
        assert finding.rule == "determinism"
        assert "unseeded" in finding.message

    def test_fires_on_wall_clock_and_environ(self, lint):
        findings = lint(
            """\
            import os
            import time

            def stamp():
                return time.time(), os.environ["HOME"]
            """,
            rules=["determinism"], path=CORE_PATH,
        )
        assert sorted(rules_of(findings)) == ["determinism", "determinism"]

    def test_fires_on_set_iteration(self, lint):
        findings = lint(
            """\
            def first(words):
                for word in set(words):
                    return word
            """,
            rules=["determinism"], path=CORE_PATH,
        )
        (finding,) = findings
        assert "no guaranteed order" in finding.message

    def test_silent_on_seeded_rng_and_sorted_sets(self, lint):
        assert lint(
            """\
            import random

            def sample(words, seed):
                rng = random.Random(seed)
                for word in sorted(set(words)):
                    if rng.random() < 0.5:
                        return word
            """,
            rules=["determinism"], path=CORE_PATH,
        ) == []

    def test_silent_outside_pipeline_scope(self, lint):
        assert lint(
            """\
            import time

            def stamp():
                return time.time()
            """,
            rules=["determinism"], path="src/repro/runtime/snippet.py",
        ) == []


class TestPicklableSubmit:
    """The retired picklable-submit fixtures, now caught by
    worker-boundary."""

    def test_fires_on_lambda_to_pool(self, lint):
        findings = lint(
            """\
            def run(pool, docs):
                return pool.map(lambda d: d.upper(), docs)
            """,
            rules=["worker-boundary"],
        )
        (finding,) = findings
        assert finding.rule == "worker-boundary"
        assert "do not pickle" in finding.message

    def test_fires_on_local_function_to_pool(self, lint):
        findings = lint(
            """\
            def run(executor, docs):
                def work(doc):
                    return doc.upper()
                return executor.submit(work, docs)
            """,
            rules=["worker-boundary"],
        )
        (finding,) = findings
        assert "'work'" in finding.message

    def test_fires_on_lambda_initializer(self, lint):
        findings = lint(
            """\
            def run(docs):
                with Pool(2, initializer=lambda: None) as pool:
                    return pool.map(str.upper, docs)
            """,
            rules=["worker-boundary"],
        )
        assert rules_of(findings) == ["worker-boundary"]

    def test_silent_on_module_level_worker(self, lint):
        assert lint(
            """\
            def work(doc):
                return doc.upper()

            def run(pool, docs):
                return pool.map(work, docs)
            """,
            rules=["worker-boundary"],
        ) == []

    def test_silent_on_non_pool_fluent_map(self, lint):
        # hypothesis strategies chain `.map(lambda ...)`; only receivers
        # that *name* a pool/executor engage the heuristic.
        assert lint(
            """\
            def strategy(st):
                return st.integers(0, 10).map(lambda n: n / 10.0)
            """,
            rules=["worker-boundary"],
        ) == []


class TestDefinitionXref:
    def test_fires_on_unknown_definition(self, lint, design_root):
        findings = lint(
            '''\
            def combine(a, b):
                """Implements Definition 99 of the paper."""
                return a + b
            ''',
            rules=["definition-xref"], root=design_root,
        )
        (finding,) = findings
        assert finding.rule == "definition-xref"
        assert finding.line == 2
        assert "Definition 99" in finding.message

    def test_fires_in_comments_and_respects_ranges(self, lint, design_root):
        findings = lint(
            """\
            X = 1  # normalization from Defs 4-7
            """,
            rules=["definition-xref"], root=design_root,
        )
        (finding,) = findings
        # Defs 4-5 exist in the mini catalogue; 6 and 7 do not.
        assert "6, 7" in finding.message

    def test_multiline_docstring_line_offset(self, lint, design_root):
        findings = lint(
            '''\
            def f():
                """Summary line.

                Cites Eq. (77) here.
                """
            ''',
            rules=["definition-xref"], root=design_root,
        )
        (finding,) = findings
        assert finding.line == 4

    def test_silent_on_valid_citations(self, lint, design_root):
        assert lint(
            '''\
            def combine(a, b):
                """Definition 2 sense scores via Eq. (12); see Prop. 1."""
                return a + b  # Definition 3
            ''',
            rules=["definition-xref"], root=design_root,
        ) == []

    def test_inert_without_catalogue(self, lint, tmp_path):
        bare = tmp_path / "no-docs"
        bare.mkdir()
        assert lint(
            '"""Definition 99 everywhere."""\n',
            rules=["definition-xref"], root=bare,
        ) == []


class TestBroadExcept:
    def test_fires_on_bare_except(self, lint):
        findings = lint(
            """\
            try:
                pass
            except:
                pass
            """,
            rules=["broad-except"],
        )
        (finding,) = findings
        assert "bare 'except:'" in finding.message

    def test_fires_on_exception_and_tuple(self, lint):
        findings = lint(
            """\
            try:
                pass
            except Exception:
                pass
            try:
                pass
            except (ValueError, BaseException):
                pass
            """,
            rules=["broad-except"],
        )
        assert rules_of(findings) == ["broad-except", "broad-except"]

    def test_silent_on_specific_exceptions(self, lint):
        assert lint(
            """\
            try:
                pass
            except (ValueError, KeyError):
                pass
            """,
            rules=["broad-except"],
        ) == []

    def test_annotated_isolation_boundary_is_sanctioned(self, lint):
        assert lint(
            """\
            try:
                pass
            except Exception:  # lint: disable=broad-except  # isolation
                pass
            """,
            rules=["broad-except"],
        ) == []


class TestMutableDefault:
    def test_fires_on_literal_and_call_defaults(self, lint):
        findings = lint(
            """\
            def f(a, acc=[], *, seen=set(), table={}):
                pass
            """,
            rules=["mutable-default"],
        )
        assert rules_of(findings) == ["mutable-default"] * 3

    def test_fires_on_lambda_default(self, lint):
        findings = lint(
            "g = lambda acc=[]: acc\n",
            rules=["mutable-default"],
        )
        assert rules_of(findings) == ["mutable-default"]

    def test_silent_on_immutable_defaults(self, lint):
        assert lint(
            """\
            def f(a=None, b=(), c="x", d=0, e=frozenset()):
                pass
            """,
            rules=["mutable-default"],
        ) == []


class TestPublicApi:
    def test_fires_on_missing_docstrings(self, lint):
        findings = lint(
            """\
            def score(a, b):
                return a + b

            class Measure:
                def compare(self, a, b):
                    return a == b
            """,
            rules=["public-api"], path=CORE_PATH,
        )
        assert rules_of(findings) == ["public-api"] * 3
        messages = " ".join(f.message for f in findings)
        assert "'score'" in messages
        assert "'Measure'" in messages
        assert "'Measure.compare'" in messages

    def test_private_names_and_nested_defs_exempt(self, lint):
        assert lint(
            '''\
            def _helper(a):
                return a

            def score(a):
                """Score one pair."""
                def inner(x):
                    return x
                return inner(a)
            ''',
            rules=["public-api"], path=CORE_PATH,
        ) == []

    def test_annotations_required_in_typed_surface(self, lint):
        source = '''\
        def score(a, b):
            """Score one pair."""
            return a + b
        '''
        typed = lint(source, rules=["public-api"], path=SIM_PATH)
        untyped = lint(source, rules=["public-api"], path=CORE_PATH)
        assert len(typed) == 2  # missing params + missing return
        assert "annotations for: a, b" in typed[0].message
        assert untyped == []

    def test_silent_on_fully_annotated_typed_surface(self, lint):
        assert lint(
            '''\
            def score(a: str, b: str) -> float:
                """Score one pair."""
                return 0.0
            ''',
            rules=["public-api"], path=SIM_PATH,
        ) == []

    def test_outside_src_repro_is_not_public_api(self, lint):
        assert lint(
            """\
            def helper():
                return 1
            """,
            rules=["public-api"], path="tests/core/snippet.py",
        ) == []


class TestSilentDegrade:
    def test_fires_on_silent_fallback_in_runtime_scope(self, lint):
        findings = lint(
            """\
            def decode(blob, network):
                try:
                    return unpack(blob)
                except DecodeError:
                    return rebuild(network)
            """,
            rules=["silent-degrade"], path=RUNTIME_PATH,
        )
        (finding,) = findings
        assert finding.rule == "silent-degrade"
        assert "degrades silently" in finding.message

    def test_silent_when_the_handler_reraises(self, lint):
        assert lint(
            """\
            def decode(blob):
                try:
                    return unpack(blob)
                except DecodeError:
                    raise
            """,
            rules=["silent-degrade"], path=RUNTIME_PATH,
        ) == []

    def test_silent_when_the_fallback_emits_a_metric(self, lint):
        assert lint(
            """\
            def decode(blob, network, metrics):
                try:
                    return unpack(blob)
                except DecodeError as exc:
                    metrics.event("pool_fault", error=str(exc))
                    return rebuild(network)
            """,
            rules=["silent-degrade"], path=RUNTIME_PATH,
        ) == []

    def test_silent_on_lookup_miss_handlers(self, lint):
        """Absence handling (KeyError & friends) is not a degrade."""
        assert lint(
            """\
            def lookup(cache, key):
                try:
                    return cache[key]
                except (KeyError, IndexError):
                    return None
            """,
            rules=["silent-degrade"], path=RUNTIME_PATH,
        ) == []

    def test_annotated_deliberate_silence_is_sanctioned(self, lint):
        assert lint(
            """\
            def decode(blob, network):
                try:
                    return unpack(blob)
                except DecodeError:  # lint: disable=silent-degrade  # surfaced via worker stats
                    return rebuild(network)
            """,
            rules=["silent-degrade"], path=RUNTIME_PATH,
        ) == []

    def test_silent_outside_runtime_scope(self, lint):
        """The rule polices the runtime package, not the whole tree."""
        assert lint(
            """\
            def decode(blob, network):
                try:
                    return unpack(blob)
                except DecodeError:
                    return rebuild(network)
            """,
            rules=["silent-degrade"], path=CORE_PATH,
        ) == []

    def test_raise_inside_a_nested_def_does_not_count(self, lint):
        """The scan stays in the handler's own scope: a raise in a
        nested function does not re-raise the handled failure."""
        findings = lint(
            """\
            def decode(blob, network):
                try:
                    return unpack(blob)
                except DecodeError:
                    def later():
                        raise RuntimeError("never called")
                    return rebuild(network)
            """,
            rules=["silent-degrade"], path=RUNTIME_PATH,
        )
        assert [(f.rule, f.line) for f in findings] == [("silent-degrade", 4)]


class TestHandlerEnvelope:
    def test_fires_on_swallowed_request_failure(self, lint):
        findings = lint(
            """\
            async def handle(request, writer):
                try:
                    await dispatch(request, writer)
                except ValueError:
                    pass
            """,
            rules=["handler-envelope"], path=SERVER_PATH,
        )
        (finding,) = findings
        assert finding.rule == "handler-envelope"
        assert "envelope" in finding.message

    def test_silent_when_the_handler_reraises(self, lint):
        assert lint(
            """\
            async def handle(request, writer):
                try:
                    await dispatch(request, writer)
                except ValueError as exc:
                    raise ProtocolError(400, str(exc))
            """,
            rules=["handler-envelope"], path=SERVER_PATH,
        ) == []

    def test_silent_when_the_handler_writes_an_envelope(self, lint):
        assert lint(
            """\
            async def handle(request, writer):
                try:
                    await dispatch(request, writer)
                except ValueError as exc:
                    await write_error_envelope(writer, exc)
            """,
            rules=["handler-envelope"], path=SERVER_PATH,
        ) == []

    def test_silent_when_an_envelope_method_is_called(self, lint):
        assert lint(
            """\
            async def handle(self, request, writer):
                try:
                    await self.dispatch(request, writer)
                except ValueError as exc:
                    await self._write_envelope(writer, 400, exc)
            """,
            rules=["handler-envelope"], path=SERVER_PATH,
        ) == []

    def test_silent_on_lookup_miss_handlers(self, lint):
        """Absence handling (KeyError & friends) is control flow."""
        assert lint(
            """\
            def session_for(sessions, fingerprint):
                try:
                    return sessions[fingerprint]
                except KeyError:
                    return None
            """,
            rules=["handler-envelope"], path=SERVER_PATH,
        ) == []

    def test_annotated_teardown_silence_is_sanctioned(self, lint):
        assert lint(
            """\
            async def teardown(writer):
                try:
                    await writer.wait_closed()
                except OSError:  # lint: disable=handler-envelope  # peer already gone
                    pass
            """,
            rules=["handler-envelope"], path=SERVER_PATH,
        ) == []

    def test_silent_outside_server_scope(self, lint):
        """The rule polices the server package, not the whole tree."""
        assert lint(
            """\
            def decode(blob):
                try:
                    return unpack(blob)
                except ValueError:
                    return None
            """,
            rules=["handler-envelope"], path=CORE_PATH,
        ) == []


class TestFullRuleSetOnCleanCode:
    def test_idiomatic_snippet_is_clean_under_every_rule(self, lint,
                                                         design_root):
        findings = lint(
            '''\
            """Module docstring citing Definition 1."""


            def depth(network: object, concept: str,
                      index: object | None = None) -> int:
                """Taxonomy depth via Eq. (10), indexed when possible."""
                if index is not None:
                    return index.depth(concept)
                return len(network.path_to_root(concept))
            ''',
            rules=None, path=SIM_PATH, root=design_root,
        )
        assert findings == []
