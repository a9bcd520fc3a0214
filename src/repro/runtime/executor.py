"""Batch disambiguation executor: corpora in, ordered results out.

One `XSDF` call disambiguates one document; production traffic arrives
as corpora.  :class:`BatchExecutor` fans a list of documents across a
``multiprocessing`` worker pool (with a serial fallback used when
``workers <= 1`` or when pools are unavailable, e.g. restricted
sandboxes), sharing one :class:`repro.runtime.pack.PackedIndex` and
one bounded similarity cache per process so repeated taxonomy work is
amortized across documents.

Determinism is a hard contract: results always come back in **input
order**, and because the indexed/cached similarity paths are
bit-identical to the uncached ones, parallel output is byte-identical
to serial output for the same input (the test suite pins this).

The parallel path is a **persistent runtime**
(:mod:`repro.runtime.pool`): workers are forked once per executor and
reused across batches, keeping their session state (warm sphere memo,
document cache) between batches, so spin-up cost is paid once, not per
batch.  The packed index is built **once in the parent** and reaches
workers as a pool initializer argument, which fork hands over without
pickling: a heap body or a shard's mapping becomes pages the workers
share with the parent, and nothing is written, re-attached or rebuilt.
Only document payloads cross the pool boundary.  Within a batch,
chunks flow through a bounded-queue pipeline that overlaps submission
with result collection instead of running submit-all/collect-all
barriers.  ``close()`` (or the GC finalizer) terminates the workers.

Failure is a first-class outcome, not an exception.  Every document
comes back with a structured :class:`~repro.runtime.resilience
.DocOutcome` (``ok`` / ``failed`` with the typed error, attempt count,
and stage).  Scores are a pure function of the document, the network
and the configuration, so a document that fails fails again: nothing
is retried.  The one fault outside the document is a worker that dies
(SIGKILL, the OOM killer): the pool reports it at once, the executor
respawns the pool and re-runs the documents the dead pool lost one
task at a time, so only a document whose own task kills its worker
fails (with stage ``pool``).  A platform that cannot create a pool
runs the batch serially.  Each transition is recorded in the
:class:`MetricsRegistry`, never silent, and every surviving document
is byte-identical to a fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.config import XSDFConfig
from ..core.framework import XSDF
from ..semnet.network import SemanticNetwork
from ..xmltree.errors import XMLError
from .cache import LRUCache
from .metrics import MetricsRegistry
from .pack import PackedIndex, PackedIndexError
from .pool import PersistentPool, auto_workers
from .resilience import (
    STAGE_INDEX,
    STAGE_PARSE,
    STAGE_PIPELINE,
    STAGE_POOL,
    STATUS_FAILED,
    STATUS_OK,
    DocOutcome,
)

#: Default bound for the per-process pairwise/sense similarity caches.
DEFAULT_CACHE_SIZE = 65536

#: Bound for the per-process document-result cache (full result dicts
#: are larger than similarity floats, so the bound is tighter).
DOC_CACHE_SIZE = 1024

#: Soft cap on the XML payload of one pool chunk.  The default chunk
#: formula only counts documents; when documents are large, a chunk's
#: pickled payload (and the latency of losing its worker) grows with
#: per-document cost, so the adaptive formula also bounds chunk bytes.
TARGET_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class BatchDocument:
    """One unit of batch work: a named XML text."""

    name: str
    xml: str


@dataclass
class BatchRecord:
    """The outcome of disambiguating one batch document.

    ``result`` is the JSON-ready ``DisambiguationResult.to_dict()``
    payload on success and ``None`` on failure, with ``error`` carrying
    the exception text (one bad document must not sink the batch).
    ``elapsed_s``, ``outcome`` (the structured :class:`DocOutcome`,
    which every producer sets) and ``worker_stats`` (the producing
    worker's cumulative memo/prune counter snapshot, parallel runs
    only) are observability-only and deliberately excluded from the
    JSONL rendering, which must be byte-identical between serial and
    parallel (and cached and uncached, faulted and fault-free) runs of
    the same input.
    """

    name: str
    result: dict | None
    error: str | None
    elapsed_s: float
    outcome: DocOutcome
    worker_stats: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the document disambiguated without an error."""
        return self.error is None

    def to_dict(self) -> dict:
        """JSON-ready rendering (the JSONL payload shape)."""
        return {
            "name": self.name,
            "ok": self.ok,
            "result": self.result,
            "error": self.error,
        }

    def to_json_line(self) -> str:
        """One canonical (sorted-key) JSONL line for this record."""
        return json.dumps(self.to_dict(), sort_keys=True)


# -- worker-process machinery ------------------------------------------------
#
# Module-level state + functions so they are picklable by the pool.
# Each worker builds its XSDF (and document-result cache) once in the
# initializer; tasks then carry only (name, xml) payloads.

_WORKER_XSDF: XSDF | None = None
_WORKER_DOC_CACHE: LRUCache | None = None
_WORKER_GENERATION: int = 0


def _init_worker(
    network: SemanticNetwork,
    config: XSDFConfig,
    index: PackedIndex | None,
    cache_size: int | None,
    generation: int = 0,
) -> None:
    """Install this worker process's XSDF + caches (pool initializer).

    ``index`` is the parent's own :class:`PackedIndex` (``None`` when
    the executor runs without one).  The pool forks its workers, so it
    arrives without pickling, its string tables already decoded: the
    worker shares its pages with the parent and builds, reads and
    verifies nothing.

    ``generation`` is the persistent pool's spawn counter: snapshots
    are tagged with it so the parent's stats merge stays monotone
    across respawns (a recycled pid in a new generation is a new
    worker, not a counter reset).
    """
    # Per-process worker state is the one sanctioned module-global
    # mutation: it is written once per process, before any task runs.
    global _WORKER_XSDF, _WORKER_DOC_CACHE, _WORKER_GENERATION  # lint: disable=cache-purity
    _WORKER_XSDF = _build_xsdf(network, config, index, cache_size)
    _WORKER_DOC_CACHE = (
        LRUCache(maxsize=DOC_CACHE_SIZE) if index is not None else None
    )
    _WORKER_GENERATION = generation


def _run_chunk(tasks: list[tuple[str, str]]) -> list[BatchRecord]:
    """Disambiguate one chunk of ``(name, xml)`` tasks."""
    assert _WORKER_XSDF is not None, "worker pool was not initialized"
    records = []
    for name, xml in tasks:
        record = _disambiguate_one(
            _WORKER_XSDF, name, xml, _WORKER_DOC_CACHE
        )
        record.worker_stats = _stats_snapshot(_WORKER_XSDF)
        records.append(record)
    return records


def _stats_snapshot(xsdf: XSDF) -> dict:
    """This worker's cumulative memo/prune counters, pid-tagged.

    Counters are monotone over a worker's lifetime, so the parent can
    recover per-worker totals by taking the elementwise max of the
    snapshots each ``(generation, pid)`` produced, then summing the
    *deltas* since its merge watermarks across workers — workers
    persist across batches, so plain per-batch sums would double-count.
    """
    stats = {
        "pid": os.getpid(),
        "gen": _WORKER_GENERATION,
        "candidates_evaluated": xsdf.prune_stats["candidates_evaluated"],
        "candidates_pruned": xsdf.prune_stats["candidates_pruned"],
    }
    memo = xsdf.sphere_memo
    if memo is not None:
        memo_stats = memo.stats()
        stats["memo_hits"] = memo_stats["hits"]
        stats["memo_misses"] = memo_stats["misses"]
        stats["memo_evictions"] = memo_stats["evictions"]
    return stats


def _build_xsdf(
    network: SemanticNetwork,
    config: XSDFConfig,
    index: PackedIndex | None,
    cache_size: int | None,
) -> XSDF:
    return XSDF(
        network, config,
        index=index,
        cache_size=cache_size if index is not None else 0,
    )


def _classify_stage(exc: BaseException) -> str:
    """Map an exception to the pipeline stage it indicts."""
    if isinstance(exc, XMLError):
        return STAGE_PARSE
    if isinstance(exc, PackedIndexError):
        return STAGE_INDEX
    return STAGE_PIPELINE


def _disambiguate_one(
    xsdf: XSDF,
    name: str,
    xml: str,
    doc_cache: LRUCache | None,
) -> BatchRecord:
    """Disambiguate one document, serving repeats from the result cache.

    The cache key is the document *text* digest: disambiguation is a
    pure function of (network, config, text), so an identical document
    seen again — the common shape of production traffic — costs one
    hash instead of a full pipeline run.  The text is digested as UTF-8
    with ``surrogatepass``, which is still injective and never fails, so
    a lone surrogate (a JSON envelope can carry one) reaches ``parse``
    and fails at stage ``parse``.  Only results are cached: a
    failed document runs (and is classified) afresh every time.  Any
    exception while parsing or scoring fails this one document, with
    the stage :func:`_classify_stage` assigns.
    """
    start = time.perf_counter()
    result: dict | None = None
    error: str | None = None
    error_type = ""
    stage = ""
    try:
        key = (
            hashlib.sha256(xml.encode("utf-8", "surrogatepass")).hexdigest()
            if doc_cache is not None else None
        )
        result = doc_cache.get(key) if key is not None else None
        if result is None:
            result = xsdf.disambiguate_document(xml).to_dict()
            if key is not None:
                # The document cache is this function's explicit output
                # store, not incidental state: writing it is the point.
                doc_cache[key] = result  # lint: disable=cache-purity
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # lint: disable=broad-except,silent-degrade  # isolation boundary -> DocOutcome
        error = f"{type(exc).__name__}: {exc}"
        error_type = type(exc).__name__
        stage = _classify_stage(exc)
    outcome = DocOutcome(
        name=name,
        status=STATUS_OK if error is None else STATUS_FAILED,
        stage=stage,
        error_type=error_type,
        error=error or "",
    )
    return BatchRecord(
        name=name,
        result=result,
        error=error,
        elapsed_s=time.perf_counter() - start,
        outcome=outcome,
    )


class BatchExecutor:
    """Disambiguates document batches serially or across a worker pool.

    Parameters
    ----------
    network:
        The reference semantic network (shared by every document).
    config:
        Pipeline parameters (defaults follow the paper).
    workers:
        Process count; ``<= 1`` runs serially in-process.  Counts
        above the host's *usable* CPUs (``auto_workers()``: affinity
        mask aware) are clamped unless ``oversubscribe=True`` — on a
        1-CPU host ``workers=2`` would pay fork + IPC + context
        switching for zero parallelism, so the executor serves such
        batches serially instead (output is identical; a
        ``workers_clamped`` event records the decision).  A worker that
        dies mid-batch breaks the pool: the executor respawns it and
        re-runs the lost documents one task at a time, failing only a
        document whose own task kills its worker (stage ``pool``).  A
        platform that cannot create a pool runs the rest of the batch
        serially.  Output is identical either way, and every
        transition is recorded in the metrics registry.
    chunk_size:
        Documents per pool task; ``None`` picks ``ceil(n / (4 *
        workers))`` — large enough to amortize dispatch, small enough to
        load-balance.
    use_index:
        Build a :class:`PackedIndex` + bounded LRU similarity cache (on
        by default — this is the runtime's raison d'être; disable to
        measure the uncached network walk).  The index is built once in
        the parent and shared: the serial path uses it directly, pool
        workers fork with it.
    cache_size:
        Bound for the pairwise-similarity LRU (``None`` = unbounded).
    metrics:
        Optional :class:`MetricsRegistry`.  The serial path threads it
        through :class:`XSDF` for full per-stage latency; the parallel
        path records batch-level counters/timers plus the merged
        per-worker memo/prune counters — other worker-process
        internals are not merged back.  Outcome counters
        (``outcome_*``), pool counters (``pool_spawns``,
        ``pool_reuses``, ``worker_respawns``) and structured events
        (``doc_failed``, ``pool_fault``) land here too.
    index:
        Optional pre-built :class:`PackedIndex` over ``network``, such
        as an ``RXPD`` shard that ``repro batch --shard`` or ``repro
        serve --shard`` attached, used instead of building one.
        Ignored when ``use_index`` is False.
    oversubscribe:
        Run the requested ``workers`` even beyond the usable-CPU count
        (default False).  The pool-lifecycle tests, the chaos gate,
        and the bench's honesty measurements use this to exercise the
        real pool machinery on single-CPU hosts.
    record_hook:
        Optional callable invoked in the parent with each *final*
        :class:`BatchRecord` as it completes, on every dispatch path
        (serial, parallel, re-run after a worker death).  The batch
        journal's append point; hook exceptions propagate and abort
        the batch.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        config: XSDFConfig | None = None,
        workers: int = 1,
        chunk_size: int | None = None,
        use_index: bool = True,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
        metrics: MetricsRegistry | None = None,
        index: PackedIndex | None = None,
        oversubscribe: bool = False,
        record_hook: "Callable[[BatchRecord], None] | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if cache_size is not None and cache_size < 1:
            raise ValueError("cache_size must be >= 1 (or None for unbounded)")
        self.network = network
        self.config = config or XSDFConfig()
        self.workers = workers
        self.oversubscribe = oversubscribe
        self.chunk_size = chunk_size
        self.use_index = use_index
        self.cache_size = cache_size
        self.metrics = metrics
        self.record_hook = record_hook
        self._index: PackedIndex | None = index if use_index else None
        self._serial_xsdf: XSDF | None = None
        self._doc_cache: LRUCache | None = (
            LRUCache(maxsize=DOC_CACHE_SIZE) if use_index else None
        )
        # Persistent parallel runtime: the pool is built once on the
        # first parallel batch and reused until close().
        self._pool: PersistentPool | None = None
        self._finalizer: "weakref.finalize | None" = None
        self._stat_marks: dict[tuple[int, int], dict[str, float]] = {}

    def _ensure_index(self) -> PackedIndex | None:
        """The shared per-executor index, built lazily exactly once."""
        if self.use_index and self._index is None:
            self._index = PackedIndex(self.network)
        return self._index

    @property
    def index(self) -> PackedIndex | None:
        """The executor's shared index, built on first access.

        Exposed so a caller can report where its tables live
        (``backing``: ``heap`` or ``mmap``) or hand one already-built
        index to another executor via the ``index=`` constructor
        parameter instead of rebuilding it.
        """
        return self._ensure_index()

    def warm(self) -> None:
        """Eagerly build the index and the serial pipeline.

        A resident caller (the ``repro serve`` daemon) pays the whole
        build cost at startup instead of on the first request, and the
        metrics registry has the caches registered before any document
        arrives.
        """
        self._serial()

    def close(self) -> None:
        """Release the persistent pool: terminate its workers.

        Idempotent, and the executor stays usable: the serial path is
        untouched, and a later parallel batch forks a fresh runtime.
        Executors also carry a GC finalizer doing the same teardown, so
        a dropped executor cannot leak workers — ``close()`` just makes
        it deterministic (the server calls it when it closes, after a
        drain).
        """
        finalizer = self._finalizer
        if finalizer is not None:
            finalizer()  # closes the pool exactly once
            self._finalizer = None
        self._pool = None

    def __enter__(self) -> "BatchExecutor":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: deterministic :meth:`close`."""
        self.close()

    @property
    def effective_workers(self) -> int:
        """The parallelism actually used for a batch.

        The requested ``workers`` clamped to the host's usable-CPU
        count (:func:`~repro.runtime.pool.auto_workers`, affinity-mask
        aware) — oversubscribing processes onto fewer CPUs costs
        fork/IPC/context-switch overhead and can win nothing.  With
        ``oversubscribe=True`` the request is honored verbatim.
        """
        if self.oversubscribe:
            return self.workers
        return min(self.workers, auto_workers())

    def runtime_stats(self) -> dict[str, int]:
        """Persistent-runtime counters (pool reuse, spawns, respawns).

        The bench honesty fields: ``pool_reuse_count`` proves warm
        batches really reused the pool, ``generation``/
        ``worker_respawns`` count spawns.
        """
        if self._pool is not None:
            return self._pool.stats()
        return {
            "workers": self.effective_workers,
            "generation": 0,
            "pool_reuse_count": 0,
            "worker_respawns": 0,
            "alive": 0,
        }

    # -- public API ----------------------------------------------------------

    def run(
        self, documents: Iterable[BatchDocument | tuple[str, str]]
    ) -> list[BatchRecord]:
        """Disambiguate every document; records come back in input order.

        One record per document: a failed document comes back as a
        record with ``ok=False`` and a structured ``outcome``, and the
        batch carries on.  An empty batch returns before any dispatch,
        so it builds neither the index nor a pipeline.  The ``batch``
        timer is recorded however ``run`` leaves, so the documents
        finished before an interrupt (``batch_documents``, counted as
        each one finishes) are rated over the time they took.
        """
        docs = [
            doc if isinstance(doc, BatchDocument) else BatchDocument(*doc)
            for doc in documents
        ]
        m = self.metrics
        if m is not None:
            m.count("batches")
        if not docs:
            return []
        start = time.perf_counter()
        effective = self.effective_workers
        if m is not None and effective < self.workers:
            m.event(
                "workers_clamped",
                requested=self.workers,
                effective=effective,
            )
        results: list[BatchRecord | None] = [None] * len(docs)
        try:
            if effective <= 1 or len(docs) <= 1:
                self._run_serial(docs, range(len(docs)), results)
            else:
                self._run_parallel(docs, results)
        finally:
            if m is not None:
                m.observe("batch", time.perf_counter() - start)
        records = [r for r in results if r is not None]
        assert len(records) == len(docs), "lost a batch document"
        if m is not None:
            m.count("batch_failures", sum(1 for r in records if not r.ok))
        return records

    # -- outcome plumbing ----------------------------------------------------

    def _finish(
        self,
        i: int,
        record: BatchRecord,
        results: "list[BatchRecord | None]",
        attempts: int = 1,
    ) -> None:
        """Store document ``i``'s final record and emit its metrics."""
        outcome = record.outcome
        outcome.attempts = attempts
        m = self.metrics
        if m is not None:
            m.count("batch_documents")
            m.count(f"outcome_{outcome.status}")
            if not record.ok:
                m.event(
                    "doc_failed",
                    doc=outcome.name,
                    error_type=outcome.error_type,
                    stage=outcome.stage,
                    attempts=attempts,
                )
        hook = self.record_hook
        if hook is not None:
            # Runs in the parent, exactly once per final record, on
            # every dispatch path — the journal's append point.  Hook
            # failures (disk full under --journal) propagate: silently
            # dropping durability would defeat the journal's contract.
            hook(record)
        results[i] = record  # lint: disable=cache-purity  # results is the batch's out-param

    # -- serial path ---------------------------------------------------------

    def _serial(self) -> XSDF:
        if self._serial_xsdf is None:
            self._serial_xsdf = _build_xsdf(
                self.network, self.config, self._ensure_index(),
                self.cache_size,
            )
            if self.metrics is not None:
                self._serial_xsdf.metrics = self.metrics
                sphere_memo = self._serial_xsdf.sphere_memo
                for name, cache in (
                    ("similarity_pairs", self._serial_xsdf.similarity_cache),
                    ("sense_scores", self._serial_xsdf.sense_cache),
                    ("documents", self._doc_cache),
                    (
                        "sphere_memo",
                        sphere_memo.cache if sphere_memo is not None else None,
                    ),
                ):
                    if isinstance(cache, LRUCache):
                        self.metrics.register_cache(name, cache)
        return self._serial_xsdf

    def _run_serial(
        self,
        docs: Sequence[BatchDocument],
        indices: Iterable[int],
        results: "list[BatchRecord | None]",
    ) -> None:
        """Score the documents at ``indices`` in this process."""
        xsdf = self._serial()
        for i in indices:
            doc = docs[i]
            self._finish(
                i, _disambiguate_one(xsdf, doc.name, doc.xml, self._doc_cache),
                results,
            )

    # -- parallel path -------------------------------------------------------

    def _auto_chunk(self, docs: Sequence[BatchDocument]) -> int:
        """Documents per pool task, adapted to per-document payload.

        Starts from the classic ``ceil(n / (4 * workers))`` (amortize
        dispatch, keep 4 waves per worker for load balancing) and then
        caps the chunk so its XML payload stays near
        :data:`TARGET_CHUNK_BYTES` — for corpora of large documents a
        count-only formula would serialize most of the batch into a
        single task and lose both balance and failure granularity.
        """
        count_chunk = max(1, -(-len(docs) // (4 * self.effective_workers)))
        if count_chunk == 1:
            return 1
        mean_doc_bytes = max(
            1, sum(len(doc.xml) for doc in docs) // len(docs)
        )
        byte_cap = max(1, TARGET_CHUNK_BYTES // mean_doc_bytes)
        return min(count_chunk, byte_cap)

    def _runtime(self) -> PersistentPool:
        """This executor's persistent pool runtime, created once.

        The pool object is built on the first parallel batch and lives
        until :meth:`close` (or the GC finalizer registered here).
        Workers themselves are forked lazily by
        ``PersistentPool.ensure`` and survive across batches with their
        session state (warm sphere memo, document cache) intact.

        Before the first fork the parent decodes the index's deferred
        string tables, so every worker inherits them instead of
        repeating the decode; a damaged table raises its
        :class:`PackedIndexError` here, from :meth:`run`, as the serial
        path's does.
        """
        if self._pool is None:
            index = self._ensure_index()
            if index is not None:
                index.materialize()
            self._pool = PersistentPool(
                processes=self.effective_workers,
                initializer=_init_worker,
                initargs=(
                    self.network, self.config, index, self.cache_size,
                ),
                metrics=self.metrics,
            )
            self._finalizer = weakref.finalize(
                self, self._pool.close, terminate=True
            )
        return self._pool

    def _run_parallel(
        self,
        docs: Sequence[BatchDocument],
        results: "list[BatchRecord | None]",
    ) -> None:
        """Score ``docs`` on the persistent pool, into ``results``.

        Chunks run through :meth:`_pipeline`.  When a worker dies the
        pool breaks; the documents of the chunks it lost are re-run
        one task at a time on a respawned pool (:meth:`_isolate`) and
        the pipeline carries on with the chunks not yet submitted.
        Once the platform refuses to create a pool, whatever is left
        runs serially.
        """
        runtime = self._runtime()
        runtime.note_batch()
        chunk = self.chunk_size or self._auto_chunk(docs)
        todo: deque[list[int]] = deque(
            list(range(at, min(at + chunk, len(docs))))
            for at in range(0, len(docs), chunk)
        )
        unrun: list[int] = []
        try:
            while todo and not unrun:
                pool = runtime.ensure()
                if pool is None:
                    break
                lost = self._pipeline(pool, docs, todo, results)
                if lost is not None:
                    runtime.restart()
                    unrun = self._isolate(runtime, docs, lost, results)
            rest = sorted(unrun + [i for group in todo for i in group])
            if rest:
                self._run_serial(docs, rest, results)
        except BaseException:  # lint: disable=broad-except  # teardown boundary: kills the workers then re-raises
            # KeyboardInterrupt/SystemExit and a failing record_hook
            # must not leave workers running abandoned tasks.  The
            # runtime stays, so the next batch forks fresh workers.
            runtime.restart()
            raise
        if self.metrics is not None:
            self._merge_worker_stats([r for r in results if r is not None])

    def _pipeline_depth(self) -> int:
        """Chunks kept in flight by the bounded-queue pipeline.

        Two per worker keeps every worker busy while the parent
        disposes the head chunk (submit overlaps collection); the
        floor of 4 keeps small pools pipelined too.  Bounding the
        queue (instead of submitting the whole batch up front) caps
        parent-side memory and what a broken pool can lose: every
        pending task fails with it, so at most this many chunks are
        re-run.
        """
        return max(4, 2 * self.effective_workers)

    def _pipeline(
        self,
        pool,
        docs: Sequence[BatchDocument],
        todo: "deque[list[int]]",
        results: "list[BatchRecord | None]",
    ) -> "list[int] | None":
        """Run ``todo``'s chunks on ``pool`` as a bounded-queue pipeline.

        Up to :meth:`_pipeline_depth` chunks are in flight; the head
        chunk is collected while later chunks execute and the tail is
        still being submitted.  Chunks leave ``todo`` as they are
        submitted.  Returns ``None`` when the pool survived, else the
        documents of the chunks the broken pool lost, in input order
        (chunks that finished before the break are kept; a pool found
        broken before anything ran loses none).
        """
        # Imported here, not at module level, so a serial batch never
        # loads concurrent.futures (and the logging module it imports).
        from concurrent.futures import BrokenExecutor, Future, wait

        depth = self._pipeline_depth()
        inflight: "deque[tuple[list[int], Future]]" = deque()
        try:
            while todo or inflight:
                while todo and len(inflight) < depth:
                    group = todo[0]
                    future = pool.submit(
                        _run_chunk,
                        [(docs[i].name, docs[i].xml) for i in group],
                    )
                    inflight.append((todo.popleft(), future))
                group, future = inflight[0]
                records = future.result()
                inflight.popleft()
                for i, record in zip(group, records):
                    self._finish(i, record, results)
        except BrokenExecutor as exc:
            if self.metrics is not None:
                self.metrics.event("pool_fault", kind="broken", error=str(exc))
            # A broken pool fails every pending future at once; wait()
            # only lets the break finish reaching each of them.
            wait([future for _, future in inflight])
            lost: list[int] = []
            for group, future in inflight:
                if future.exception() is None:
                    for i, record in zip(group, future.result()):
                        self._finish(i, record, results)
                else:
                    lost.extend(group)
            return sorted(lost)
        return None

    def _isolate(
        self,
        runtime: PersistentPool,
        docs: Sequence[BatchDocument],
        lost: list[int],
        results: "list[BatchRecord | None]",
    ) -> list[int]:
        """Re-run a broken pool's lost documents, one task at a time.

        Each document runs alone on the (respawned) pool, so when a
        worker dies again the document that killed it is known: it
        fails with stage ``pool``, and the pool is respawned for the
        next one.  Every document here is on its second dispatch.
        Returns the documents left unrun because no pool could be
        created (empty otherwise).
        """
        from concurrent.futures import BrokenExecutor

        for n, i in enumerate(lost):
            pool = runtime.ensure()
            if pool is None:
                return lost[n:]
            doc = docs[i]
            try:
                (record,) = pool.submit(
                    _run_chunk, [(doc.name, doc.xml)]
                ).result()
            except BrokenExecutor as exc:
                if self.metrics is not None:
                    self.metrics.event(
                        "pool_fault", kind="broken", doc=doc.name,
                        error=str(exc),
                    )
                runtime.restart()
                error = f"{type(exc).__name__}: {exc}"
                record = BatchRecord(
                    name=doc.name,
                    result=None,
                    error=error,
                    elapsed_s=0.0,
                    outcome=DocOutcome(
                        name=doc.name,
                        status=STATUS_FAILED,
                        stage=STAGE_POOL,
                        error_type=type(exc).__name__,
                        error=error,
                    ),
                )
            self._finish(i, record, results, attempts=2)
        return []

    def _merge_worker_stats(self, records: Sequence[BatchRecord]) -> None:
        """Fold worker memo/prune snapshots into the parent's counters.

        Each record carries its worker's *cumulative* counters at
        production time; the per-worker total is the elementwise max of
        that worker's snapshots.  Workers are keyed by ``(generation,
        pid)`` and persist across batches on the warm pool, so what
        lands in the registry is the **delta** above the executor's
        per-worker watermarks from earlier batches — a plain per-batch
        sum of cumulative counters would double-count every reuse.
        """
        per_worker: dict[tuple[int, int], dict[str, float]] = {}
        for record in records:
            stats = record.worker_stats
            if not stats:
                continue
            key = (stats.get("gen", 0), stats["pid"])
            bucket = per_worker.setdefault(key, {})
            for name, value in stats.items():
                if name not in ("pid", "gen") and value > bucket.get(name, 0):
                    bucket[name] = value
        totals: dict[str, float] = {}
        for key, bucket in per_worker.items():
            marks = self._stat_marks.setdefault(key, {})
            for name, value in bucket.items():
                delta = value - marks.get(name, 0)
                if delta > 0:
                    totals[name] = totals.get(name, 0) + delta
                    marks[name] = value
        for name, value in totals.items():
            if value:
                self.metrics.count(name, value)
