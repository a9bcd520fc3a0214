"""Cross-document sphere memoization: skip whole repeated disambiguations.

The Table 3 corpora are structurally repetitive — thousands of nodes
across documents present the *identical disambiguation situation*: same
target label, same sphere neighborhood (Definitions 4-5).  Inside one
:class:`~repro.core.framework.XSDF` the configuration and the network
the sphere is scored under (Definitions 6-10, Eq. 13) never change, so
disambiguation is a pure function of the sphere, and its outcome (the
chosen sense plus every per-candidate score) can be memoized once and
replayed for every recurrence, across documents and for the lifetime of
the instance.

:class:`SphereMemo` implements the memo as a bounded LRU private to the
``XSDF`` that builds it, keyed by a canonical, hash-stable **sphere
signature**:

* the target's ``(label, tokens)`` pair;
* the **ordered** sphere member sequence as ``(distance, label,
  tokens)`` triples.

The member sequence is deliberately *ordered*, not a sorted multiset:
float accumulation follows sphere order (the concept-based sum and the
context-vector dict are both built member-by-member), and float addition
is commutative but not associative — two spheres with equal multisets
but different orders may produce different low-order bits.  Keying on
the exact order is what makes memoized results **bit-identical** to
fresh computation (see docs/architecture.md for the full argument).

The key is a blake2b digest of the ``repr`` of that nested tuple
(:func:`sphere_signature`).  :meth:`SphereMemo.signature` hashes the
same text without re-rendering every member: the document plan
(:class:`~repro.core.framework.DocumentPlan`) renders each node's
``(label, tokens)`` once per document.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from .cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..core.framework import DocumentPlan
    from ..core.sphere import Sphere

#: Default bound for the sphere-result memo.  Entries are small (a
#: handful of tuples), but result payloads are bigger than similarity
#: floats, so the default sits between the pair cache (65536) and the
#: document cache (1024).
DEFAULT_MEMO_SIZE = 8192

#: A memoized disambiguation outcome: ``(chosen, combined_items,
#: concept_items, context_items)`` — the argmax candidate plus the three
#: per-candidate score tables as hashable item tuples.
MemoEntry = tuple[
    tuple[str, ...],
    tuple[tuple[tuple[str, ...], float], ...],
    tuple[tuple[tuple[str, ...], float], ...],
    tuple[tuple[tuple[str, ...], float], ...],
]


def sphere_signature(sphere: "Sphere") -> bytes:
    """Canonical hash-stable key of one disambiguation situation.

    The member sequence is folded in sphere order, which is exactly the
    order every float accumulation follows; see the module docstring
    for why sorting it would break bit-identity.  This is the key's
    definition: :meth:`SphereMemo.signature` hashes the same bytes,
    assembled from a document plan's per-node segments.
    """
    center = sphere.center
    payload = (
        center.label,
        center.tokens,
        tuple(
            (member.distance, member.node.label, member.node.tokens)
            for member in sphere.members
        ),
    )
    return hashlib.blake2b(
        repr(payload).encode("utf-8"), digest_size=24
    ).digest()


class SphereMemo:
    """Bounded LRU of disambiguation outcomes keyed by sphere signature.

    One instance belongs to one :class:`~repro.core.framework.XSDF` and
    serves every document it disambiguates — serially for the process
    lifetime, or per worker under
    :class:`~repro.runtime.executor.BatchExecutor` (whose parent merges
    worker hit/miss statistics back).  Because the signature covers the
    complete input that varies within the instance, replayed entries
    are bit-identical to fresh computation; the memo can never change a
    result, only skip recomputing it.

    Parameters
    ----------
    maxsize:
        LRU bound (:data:`DEFAULT_MEMO_SIZE` by default; ``None`` for
        unbounded).
    """

    def __init__(self, maxsize: int | None = DEFAULT_MEMO_SIZE):
        self._cache: LRUCache = LRUCache(maxsize=maxsize)

    @property
    def cache(self) -> LRUCache:
        """The underlying LRU (for metrics registration and tests)."""
        return self._cache

    def signature(self, sphere: "Sphere", plan: "DocumentPlan") -> bytes:
        """:func:`sphere_signature` of one sphere, byte for byte.

        The payload's repr is assembled from the document ``plan``'s
        per-node segments (``repr`` of each node's label and tokens,
        rendered once per document) instead of re-rendering every
        member: a member triple renders as ``(distance, segment)`` and
        a one-member sequence keeps the 1-tuple's trailing comma.
        """
        segments = plan.segments
        members = sphere.members
        body = ", ".join([
            f"({distance!r}, {segments[node.index]})"
            for node, distance in members
        ])
        if len(members) == 1:
            body += ","
        text = f"({segments[sphere.center.index]}, ({body}))"
        return hashlib.blake2b(text.encode("utf-8"), digest_size=24).digest()

    def get(self, signature: bytes) -> MemoEntry | None:
        """The memoized entry for ``signature``, or None (counted)."""
        return self._cache.get(signature)

    def put(self, signature: bytes, entry: MemoEntry) -> None:
        """Memoize one disambiguation outcome."""
        self._cache[signature] = entry

    def stats(self) -> dict[str, float]:
        """JSON-ready hit/miss/eviction counters snapshot."""
        return self._cache.stats()

    def __len__(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SphereMemo({len(self._cache)} entries, "
            f"hit_rate={self._cache.hit_rate:.2f})"
        )
