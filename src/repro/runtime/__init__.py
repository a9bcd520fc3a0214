"""Cached, parallel, instrumented disambiguation runtime.

The paper's algorithms (:mod:`repro.core`, :mod:`repro.similarity`)
describe *what* to compute; this package makes computing it at corpus
scale cheap and observable without changing a single score:

* :mod:`~repro.runtime.pack` — :class:`PackedIndex`, precomputed
  taxonomy/IC/gloss tables built once per network, interned to dense
  integers and laid out as flat arrays in one ``RXPD`` body, with
  packed similarity kernels that ``XSDF(index=)`` scores through
  (``CombinedSimilarity``'s slot path, bit-identical to the network
  walk);
* :mod:`~repro.runtime.cache` — :class:`LRUCache`, a bounded pairwise
  memo with hit/miss/eviction counters;
* :mod:`~repro.runtime.memo` — :class:`SphereMemo`, one XSDF's
  bounded LRU of whole disambiguation outcomes keyed by a canonical
  sphere signature (target, ordered members), so repeated spheres
  replay bit-identically across documents;
* :mod:`~repro.runtime.executor` — :class:`BatchExecutor`, a
  pipelined process-pool fan-out with serial fallback and
  deterministic, input-ordered results;
* :mod:`~repro.runtime.pool` — :class:`PersistentPool`, the
  long-lived worker runtime (spawn once, serve many batches; a dead
  worker breaks the pool at once instead of stalling it), plus the
  ``--workers auto`` helpers :func:`auto_workers` /
  :func:`parse_workers`;
* :mod:`~repro.runtime.store` — the on-disk ``RXPD`` shard format
  (:func:`write_shard` / :meth:`PackedIndex.from_mmap`): packed tables
  memory-mapped straight from disk, pages shared across *separate*
  processes via the OS page cache;
* :mod:`~repro.runtime.metrics` — :class:`MetricsRegistry`, per-stage
  latency timers, counters, and structured events with JSON report
  export, zero-overhead when off;
* :mod:`~repro.runtime.resilience` — :class:`DocOutcome`:
  per-document fault isolation (a failed document fails alone, typed
  by stage, as one more record of the batch);
* :mod:`~repro.runtime.journal` — :class:`JournalWriter` /
  :func:`read_journal`, the append-only CRC-framed outcome journal
  (WAL) behind ``repro batch --journal/--resume``: a killed batch
  resumes byte-identically, re-scoring only what never landed.

Typical use::

    from repro.runtime import BatchExecutor, MetricsRegistry

    metrics = MetricsRegistry()
    executor = BatchExecutor(network, config, workers=4, metrics=metrics)
    records = executor.run([(doc.name, doc.xml) for doc in corpus])
    print(metrics.to_json())
"""

from .cache import LRUCache
from .executor import BatchDocument, BatchExecutor, BatchRecord
from .journal import (
    JournalError,
    JournalReplay,
    JournalWriter,
    document_digest,
    read_journal,
)
from .memo import SphereMemo, sphere_signature
from .metrics import MetricsRegistry, StageTimer, batch_summary
from .pack import (
    PackedIndex,
    PackedIndexCRCError,
    PackedIndexError,
    PackedIndexTruncatedError,
)
from .pool import PersistentPool, auto_workers, parse_workers
from .resilience import DocOutcome
from .store import (
    read_shard_header,
    verify_shard,
    write_shard,
)

__all__ = [
    "BatchDocument",
    "BatchExecutor",
    "BatchRecord",
    "DocOutcome",
    "JournalError",
    "JournalReplay",
    "JournalWriter",
    "LRUCache",
    "MetricsRegistry",
    "PackedIndex",
    "PackedIndexCRCError",
    "PackedIndexError",
    "PackedIndexTruncatedError",
    "PersistentPool",
    "SphereMemo",
    "StageTimer",
    "auto_workers",
    "batch_summary",
    "document_digest",
    "parse_workers",
    "read_journal",
    "read_shard_header",
    "sphere_signature",
    "verify_shard",
    "write_shard",
]
