"""Bounded LRU memoization for similarity and sense-score lookups.

Disambiguation pounds a small set of expensive pure functions — pairwise
concept similarity above all — with heavily repeated arguments.  The
substrate measures memoize in plain unbounded dicts, which is fine for
one document but not for a long-running batch service: a production
runtime needs *bounded* memory and *observable* behavior.

:class:`LRUCache` provides both.  It is dict-compatible where the
substrate expects a dict (``get`` / ``__setitem__`` / ``__len__``), so
it can stand in for :class:`repro.similarity.combined
.CombinedSimilarity`'s pair memo (``XSDF(cache_size=)`` builds one
that way), and it counts hits, misses, and evictions so
:mod:`repro.runtime.metrics` can report cache effectiveness per run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Sentinel distinguishing "absent" from a cached falsy value.
_MISSING = object()


class LRUCache:
    """A bounded least-recently-used key/value memo with counters.

    Parameters
    ----------
    maxsize:
        Maximum number of entries; the least recently *used* (read or
        written) entry is evicted when a new key would exceed it.
        ``None`` disables the bound (the cache then behaves like the
        substrate's plain dict memo, but still counts hits/misses).
    """

    def __init__(self, maxsize: int | None = 4096):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        # `get` is the hottest frame in a cached batch run; binding the
        # store's methods once skips two attribute lookups per call.
        # Safe because `_data` is never rebound (`clear()` keeps it).
        self._data_get = self._data.get
        self._move_to_end = self._data.move_to_end
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- dict-compatible surface (what CombinedSimilarity touches) ----------

    def get(self, key: K, default: V | None = None) -> V | None:
        """The cached value (marking a hit) or ``default`` (a miss)."""
        value = self._data_get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._move_to_end(key)
        return value

    def __setitem__(self, key: K, value: V) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(self._data)

    # -- observability -------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return 0.0
        return self.hits / lookups

    def stats(self) -> dict[str, float]:
        """JSON-ready counters snapshot."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._data.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LRUCache({len(self._data)}/{self.maxsize}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
