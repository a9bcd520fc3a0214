"""Lightweight runtime instrumentation: counters, stage timers, reports.

The pipeline stays zero-overhead by default: :class:`repro.core
.framework.XSDF` holds ``metrics = None`` and every instrumentation site
is guarded by a plain ``is not None`` check, so uninstrumented runs
execute exactly the seed code path.  Passing a :class:`MetricsRegistry`
turns on per-stage latency timers (parse, select, sphere, score),
document/target counters, and cache-statistics collection, all
exportable as a JSON report for dashboards or the perf trajectory
(``BENCH_runtime.json``).

Timers use ``time.perf_counter`` and cost one function call plus a dict
update per observation — cheap enough to leave on in batch jobs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cache import LRUCache


class StageTimer:
    """Accumulated wall-clock time of one named pipeline stage."""

    __slots__ = ("name", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        """Record one more observation of this stage."""
        self.count += 1
        self.total += seconds

    @property
    def mean(self) -> float:
        """Average seconds per observation (0.0 before any)."""
        return self.total / self.count if self.count else 0.0

    def stats(self) -> dict[str, float]:
        """JSON-ready counters snapshot for this stage."""
        return {
            "count": self.count,
            "total_s": round(self.total, 6),
            "mean_ms": round(self.mean * 1e3, 6),
        }


class MetricsRegistry:
    """Counters + timers + cache stats for one runtime session.

    All mutation methods are cheap and allocation-free on the hot path;
    aggregation happens only in :meth:`snapshot`.
    """

    #: Cap on retained structured events; older runs never grow unbounded.
    MAX_EVENTS = 256

    def __init__(self):
        self._counters: dict[str, float] = {}
        self._timers: dict[str, StageTimer] = {}
        self._caches: dict[str, "LRUCache"] = {}
        self._events: list[dict] = []
        self._events_dropped = 0
        self._started = time.perf_counter()

    # -- counters ------------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named counter (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never touched)."""
        return self._counters.get(name, 0.0)

    # -- events --------------------------------------------------------------

    def event(self, name: str, **fields) -> None:
        """Record one structured event (degradation, fault, retry, ...).

        Events are the audit trail of the resilience layer: every
        fallback and retry emits one so "it silently
        degraded" can never happen again (the ``silent-degrade`` lint
        rule enforces this).  The list is capped at :data:`MAX_EVENTS`;
        overflow is counted, not silently discarded.
        """
        if len(self._events) >= self.MAX_EVENTS:
            self._events_dropped += 1
            return
        self._events.append({"event": name, **fields})

    def events(self, name: str | None = None) -> list[dict]:
        """Recorded events, optionally filtered by event name."""
        if name is None:
            return list(self._events)
        return [e for e in self._events if e["event"] == name]

    # -- timers --------------------------------------------------------------

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager timing one observation of stage ``name``."""
        stage = self._timers.get(name)
        if stage is None:
            stage = self._timers[name] = StageTimer(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            stage.observe(time.perf_counter() - start)

    def observe(self, name: str, seconds: float) -> None:
        """Record an externally measured duration for stage ``name``."""
        stage = self._timers.get(name)
        if stage is None:
            stage = self._timers[name] = StageTimer(name)
        stage.observe(seconds)

    def stage(self, name: str) -> StageTimer | None:
        """The named timer, if any observation was recorded."""
        return self._timers.get(name)

    # -- cache attachment ----------------------------------------------------

    def register_cache(self, name: str, cache: "LRUCache") -> None:
        """Attach a cache whose stats join the snapshot."""
        self._caches[name] = cache

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready snapshot of everything observed so far, safe for
        concurrent readers.

        ``throughput.docs_per_s`` is derived from the ``documents``
        counter over the registry's lifetime — the number a capacity
        plan actually needs.  Every container is copied through an
        atomic ``.copy()``/``list(...)`` before iteration, so a reader
        on another thread (the server answering ``GET /metrics`` while
        its scoring thread observes timers) never races a concurrent
        insert into a ``RuntimeError``.  Values are read without a
        lock: a snapshot is a consistent *shape*, and individual
        counters are monotone, so the worst case is a reading one
        observation stale.
        """
        elapsed = time.perf_counter() - self._started
        counters = self._counters.copy()
        docs = counters.get("documents", 0.0)
        return {
            "elapsed_s": round(elapsed, 6),
            "counters": counters,
            "events": [dict(e) for e in list(self._events)],
            "events_dropped": self._events_dropped,
            "stages": {
                name: timer.stats()
                for name, timer in list(self._timers.items())
            },
            "caches": {
                name: cache.stats()
                for name, cache in list(self._caches.items())
            },
            "throughput": {
                "documents": docs,
                "docs_per_s": round(docs / elapsed, 6) if elapsed > 0 else 0.0,
            },
        }

    def to_json(self, indent: int = 1) -> str:
        """The snapshot serialized as JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        """Write the JSON snapshot to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def batch_summary(report: dict, n_records: int, n_failures: int) -> str:
    """The one-line human summary of a batch metrics snapshot.

    ``repro batch``'s end-of-run stderr line: document/failure counts,
    throughput, memo traffic (serial runs surface it through the
    registered LRU, parallel runs through the merged worker counters)
    and pruning counts.  The rate is the documents the executor scored
    (``batch_documents``) over the ``batch`` stage timer, so records a
    resumed batch replayed from its journal do not inflate it, and an
    interrupted batch still rates the documents it finished.  Pure
    function of the snapshot — the caller appends its own suffixes
    (index backing, journal counts).
    """
    counters = report.get("counters", {})
    batch = report.get("stages", {}).get("batch", {})
    scored = counters.get("batch_documents", 0)
    rate = scored / batch["total_s"] if batch.get("total_s") else 0.0
    summary = (
        f"{n_records} documents, {n_failures} failed, "
        f"{rate:.1f} docs/s"
    )
    caches = report.get("caches", {})
    memo_hits = counters.get("memo_hits", 0) or caches.get(
        "sphere_memo", {}
    ).get("hits", 0)
    memo_misses = counters.get("memo_misses", 0) or caches.get(
        "sphere_memo", {}
    ).get("misses", 0)
    pruned = counters.get("candidates_pruned", 0)
    if memo_hits or memo_misses or pruned:
        summary += (
            f", memo {int(memo_hits)}/{int(memo_hits + memo_misses)} hits"
            f", {int(pruned)} candidates pruned"
        )
    return summary
