"""Span tracing around the public calls into each layer.

:func:`install` wraps the functions and methods listed in
:data:`SYNC_TARGETS` / :data:`ASYNC_TARGETS` before the program builds
anything, so every call made through the program's normal code path
lands in a span.  Spans stay in memory: each thread keeps a stack of
open spans (asyncio tasks keep theirs in a context variable) and a
per-layer aggregate of calls, total and self time, where self time is a
span's duration minus the time its child spans cover.  Only top-level
spans keep their intervals, so memory is bounded by the number of
documents, not by the number of kernel calls.  :meth:`Tracer.dump`
writes everything once, when the program ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import threading
import time
from collections import defaultdict, deque

#: (layer, module, attribute path) of each synchronous call that is timed.
#: Functions imported by name are patched where the caller looks them up.
SYNC_TARGETS = (
    ("xmltree", "repro.core.framework", "parse"),
    ("xmltree", "repro.core.framework", "build_tree"),
    ("linguistics", "repro.linguistics.pipeline", "LinguisticPipeline.process_label"),
    ("linguistics", "repro.linguistics.pipeline", "LinguisticPipeline.process_value"),
    ("ambiguity", "repro.core.framework", "select_targets"),
    ("ambiguity", "repro.core.framework", "ambiguity_degree"),
    ("sphere", "repro.core.framework", "build_sphere"),
    ("context_vector", "repro.core.framework", "context_vector"),
    ("context_vector", "repro.core.concept_based", "context_vector"),
    ("memo", "repro.runtime.memo", "SphereMemo.signature"),
    ("memo", "repro.runtime.memo", "SphereMemo.get"),
    ("memo", "repro.runtime.memo", "SphereMemo.put"),
    ("concept", "repro.core.concept_based", "ConceptBasedScorer.context_inventory"),
    ("concept", "repro.core.concept_based", "ConceptBasedScorer.score_one"),
    ("concept", "repro.core.concept_based", "ConceptBasedScorer.upper_bound_one"),
    ("context", "repro.core.context_based", "ContextBasedScorer.score_all"),
    ("context_walk", "repro.core.context_based", "concept_context_vector"),
    ("context_walk", "repro.core.context_based", "compound_concept_context_vector"),
    ("pair", "repro.similarity.combined", "CombinedSimilarity.__call__"),
    ("bound", "repro.similarity.combined", "CombinedSimilarity.upper_bound"),
    ("lexicon", "repro.semnet", "default_lexicon"),
    ("lexicon", "repro.cli", "default_lexicon"),
    ("index_build", "repro.runtime.pack", "PackedIndex.__init__"),
    ("network_load", "repro.semnet.io", "load_network"),
    ("fingerprint", "repro.semnet.network", "SemanticNetwork.fingerprint"),
    ("store_attach", "repro.runtime.pack", "PackedIndex.from_mmap"),
    ("executor", "repro.runtime.executor", "BatchExecutor.run"),
    ("xsdf", "repro.core.framework", "XSDF.disambiguate_document"),
    ("pool_spawn", "repro.runtime.pool", "PersistentPool.ensure"),
    ("server_score", "repro.server.app", "run_one_document"),
)

ASYNC_TARGETS = (
    ("server_read", "repro.server.lifecycle", "read_request"),
    ("server_stream", "repro.server.protocol", "ChunkedNDJSONWriter.write_line"),
    ("server_stream", "repro.server.protocol", "ChunkedNDJSONWriter.write_raw_line"),
    ("server_stream", "repro.server.protocol", "ChunkedNDJSONWriter.finish"),
)

_TASK_STACK: contextvars.ContextVar = contextvars.ContextVar("perfbench_stack")


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[float] = []
        #: layer -> [calls, total_s, self_s]
        self.layers: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (start, end, layer) of spans opened with an empty stack.
        self.top: list[tuple[float, float, str]] = []


class Tracer:
    """In-memory span aggregates plus a few counts taken at the same calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.counts: dict[str, float] = defaultdict(float)
        #: request name -> queue of read-completion times (server only).
        self._read_done: dict[str, deque] = defaultdict(deque)
        self.pre_score_s: list[float] = []
        self.score_s: list[float] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _close(self, state, stack, layer, start, end) -> None:
        duration = end - start
        child = stack.pop()
        entry = state.layers[layer]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if stack:
            stack[-1] += duration
        else:
            state.top.append((start, end, layer))

    def wrap(self, layer: str, fn, observe=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(state, stack, layer, start, clock())
            if observe is not None:
                observe(args, result, start)
            return result

        traced.perfbench_layer = layer
        return traced

    def wrap_async(self, layer: str, fn, observe=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            stack = _TASK_STACK.get(None)
            if stack is None:
                stack = []
                _TASK_STACK.set(stack)
            stack.append(0.0)
            start = clock()
            try:
                result = await fn(*args, **kwargs)
            finally:
                self._close(self._state(), stack, layer, start, clock())
            if observe is not None:
                observe(args, result, start)
            return result

        return traced

    # -- counts taken where the work happens ---------------------------------

    def _observe_parse(self, args, result, start) -> None:
        self.counts["xmltree.bytes"] += len(args[0])

    def _observe_select(self, args, result, start) -> None:
        self.counts["ambiguity.targets"] += len(result)
        self.counts["ambiguity.nodes"] += len(args[0])

    def _observe_sphere(self, args, result, start) -> None:
        self.counts["sphere.members"] += len(result)

    def _observe_read(self, args, request, start) -> None:
        if request is not None and request.method == "POST":
            import json

            name = json.loads(request.body)["name"]
            self._read_done[name].append(time.perf_counter())

    def _observe_score(self, args, record, start) -> None:
        done = self._read_done.get(args[1])
        if done:
            self.pre_score_s.append(start - done.popleft())
        self.score_s.append(time.perf_counter() - start)

    # -- output ----------------------------------------------------------------

    def dump(self, wall_start: float, wall_end: float) -> dict:
        """Per-layer aggregates, top-level coverage and counts, JSON-ready."""
        layers: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        intervals, per_thread = [], 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, (calls, total, own) in list(state.layers.items()):
                entry = layers[layer]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            spans = [(s, e) for s, e, _ in state.top]
            per_thread += _covered(spans, wall_start, wall_end)
            intervals += spans
        covered = _covered(intervals, wall_start, wall_end)
        return {
            "wall_s": wall_end - wall_start,
            "covered_s": covered,
            # Wall time in spans on two threads at once (serve: the event
            # loop and the scoring thread), which their rows both count.
            "concurrent_s": per_thread - covered,
            "layers": {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(layers.items())
            },
            "counts": dict(self.counts),
            "pre_score_s": self.pre_score_s,
            "score_s": self.score_s,
        }


def _covered(intervals, wall_start: float, wall_end: float) -> float:
    """Length of the union of ``intervals`` within the wall window."""
    covered, cursor = 0.0, wall_start
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, wall_end)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def install() -> Tracer:
    """Wrap every target; returns the tracer that collects the spans."""
    tracer = Tracer()
    observers = {
        "parse": tracer._observe_parse,
        "select_targets": tracer._observe_select,
        "build_sphere": tracer._observe_sphere,
        "read_request": tracer._observe_read,
        "run_one_document": tracer._observe_score,
    }
    for targets, wrap in (
        (SYNC_TARGETS, tracer.wrap), (ASYNC_TARGETS, tracer.wrap_async)
    ):
        for layer, module_name, attr_path in targets:
            owner, name = _resolve(module_name, attr_path)
            raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if hasattr(raw, "perfbench_layer"):
                continue  # imported by name from an already wrapped module
            observe = observers.get(name)
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(wrap(layer, raw.__func__, observe)))
            else:
                setattr(owner, name, wrap(layer, raw, observe))
    return tracer
