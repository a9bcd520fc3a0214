"""Cross-document sphere memoization: skip whole repeated disambiguations.

The Table 3 corpora are structurally repetitive — thousands of nodes
across documents present the *identical disambiguation situation*: same
target label, same sphere neighborhood (Definitions 4-5), same
configuration, same network.  Disambiguation is a pure function of that
situation, so its outcome (the chosen sense plus every per-candidate
score) can be memoized once and replayed for every recurrence, across
documents and for the lifetime of a batch process.

:class:`SphereMemo` implements the memo as a bounded LRU keyed by a
canonical, hash-stable **sphere signature**:

* the *frozen config fingerprint* — a digest of every
  :class:`~repro.core.config.XSDFConfig` field (weights, radius,
  approach, measure mix, ...), built once by :func:`config_fingerprint`;
* the *frozen network fingerprint* —
  :meth:`repro.semnet.network.SemanticNetwork.fingerprint`, a content
  digest that changes whenever the network mutates;
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

Every value folded into the signature must come from the frozen
fingerprint helpers or from the sphere itself — reading live config or
network attributes inside the signature builder is how stale-memo bugs
are born, and reprolint's ``memo-key-purity`` rule rejects it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from .cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..core.config import XSDFConfig
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


def config_fingerprint(config: "XSDFConfig") -> str:
    """Frozen digest of every scoring-relevant configuration field.

    Computed **once** when a memo is created and never re-read on the
    hot path; folding the digest (rather than live attribute reads)
    into sphere signatures is the ``memo-key-purity`` contract.  All
    fields join the digest — including ones that cannot change scores,
    like the ambiguity weights — because over-keying only costs a few
    hashed bytes while under-keying serves stale results.
    """
    policy = config.distance_policy
    if policy is not None and not isinstance(policy, str):
        # Policy objects have no canonical repr; freeze their type and
        # constructor state.  (The sphere signature already captures the
        # policy's *effect* — member distances — so this is belt and
        # braces against two policies producing equal cost bands.)
        policy = (
            type(policy).__qualname__,
            tuple(sorted(vars(policy).items())) if vars(policy) else (),
        )
    weights = config.similarity_weights
    ambiguity = config.ambiguity_weights
    canonical = (
        config.sphere_radius,
        config.approach.value,
        config.concept_weight,
        config.context_weight,
        (weights.edge, weights.node, weights.gloss),
        config.vector_measure,
        config.include_values,
        config.strip_target_dimension,
        (ambiguity.polysemy, ambiguity.depth, ambiguity.density),
        config.ambiguity_threshold,
        policy,
    )
    return hashlib.blake2b(
        repr(canonical).encode("utf-8"), digest_size=16
    ).hexdigest()


def sphere_signature(
    sphere: "Sphere", config_fp: str, network_fp: str
) -> bytes:
    """Canonical hash-stable key of one disambiguation situation.

    ``config_fp`` and ``network_fp`` must be the **frozen** digests from
    :func:`config_fingerprint` and ``SemanticNetwork.fingerprint()`` —
    never live attribute reads (the ``memo-key-purity`` rule).  The
    member sequence is folded in sphere order, which is exactly the
    order every float accumulation follows; see the module docstring
    for why sorting it would break bit-identity.  This is the key's
    definition: :meth:`SphereMemo.signature` hashes the same bytes,
    assembled from a document plan's per-node segments.
    """
    center = sphere.center
    payload = (
        config_fp,
        network_fp,
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

    One instance is shared across every document an :class:`~repro.core
    .framework.XSDF` disambiguates — serially for the process lifetime,
    or per worker under :class:`~repro.runtime.executor.BatchExecutor`
    (whose parent merges worker hit/miss statistics back).  Because the
    signature covers the complete input of the disambiguation function,
    replayed entries are bit-identical to fresh computation; the memo
    can never change a result, only skip recomputing it.

    Parameters
    ----------
    config:
        The run configuration; frozen into a fingerprint at
        construction time.
    network_fingerprint:
        The network's content digest
        (:meth:`~repro.semnet.network.SemanticNetwork.fingerprint`).
    maxsize:
        LRU bound (:data:`DEFAULT_MEMO_SIZE` by default; ``None`` for
        unbounded).
    """

    def __init__(
        self,
        config: "XSDFConfig",
        network_fingerprint: str,
        maxsize: int | None = DEFAULT_MEMO_SIZE,
    ):
        # The repr of the signature payload's two leading fields, the
        # frozen config and network fingerprints.
        self._head = (
            f"({config_fingerprint(config)!r}, {network_fingerprint!r}, "
        )
        self._cache: LRUCache = LRUCache(maxsize=maxsize)

    @property
    def cache(self) -> LRUCache:
        """The underlying LRU (for metrics registration and tests)."""
        return self._cache

    def signature(self, sphere: "Sphere", plan: "DocumentPlan") -> bytes:
        """:func:`sphere_signature` of one sphere, byte for byte, under
        this memo's frozen config/network fingerprints.

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
        text = f"{self._head}{segments[sphere.center.index]}, ({body}))"
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
