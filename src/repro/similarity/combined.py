"""The paper's combined semantic similarity measure (Definition 9).

``Sim(c1, c2, SN-bar) = w_edge * Sim_edge + w_node * Sim_node +
w_gloss * Sim_gloss`` with non-negative weights summing to 1.  The
component measures are the ones the paper names: Wu-Palmer (edge), Lin
(node), and normalized extended Lesk (gloss) — each swappable.

Pair results are memoized: disambiguation evaluates the same concept
pairs repeatedly across context nodes, and caching makes the
concept-based scorer's complexity linear in distinct pairs.

With a :class:`repro.runtime.pack.PackedIndex`, :class:`CombinedSimilarity`
scores over its slots; this slot path is the only reader of the packed
kernels, and the component measures are its network-walk oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, MutableMapping

from ..semnet.ic import InformationContent, lin_ratio
from ..semnet.network import SemanticNetwork
from .edge import WuPalmerSimilarity, wu_palmer_ratio
from .gloss import ExtendedLeskSimilarity
from .node import LinSimilarity

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..runtime.pack import PackedIndex

#: A concept-to-concept similarity function.
ConceptSimilarity = Callable[[str, str], float]

#: Anything CombinedSimilarity can memoize pairs into: a plain dict or
#: a dict-compatible store such as :class:`repro.runtime.cache.LRUCache`
#: (only ``get`` / ``__setitem__`` / ``__len__`` are touched).  Keys are
#: the unordered concept-id pair, or its slot-pair key on the slot path.
PairCache = MutableMapping[Hashable, float]


def _slot_pair_key(ia: int, ib: int) -> int:
    """One int per unordered slot pair (slots are below ``2**32``)."""
    return (ia << 32) | ib if ia <= ib else (ib << 32) | ia


@dataclass(frozen=True)
class SimilarityWeights:
    """The (w_edge, w_node, w_gloss) mix, normalized to sum to 1.

    The paper's experiments use the uniform mix (1/3 each); ablations
    sweep the simplex corners.
    """

    edge: float = 1.0 / 3.0
    node: float = 1.0 / 3.0
    gloss: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.edge, self.node, self.gloss))):
            raise ValueError("similarity weights must be finite")
        if min(self.edge, self.node, self.gloss) < 0:
            raise ValueError("similarity weights must be non-negative")
        total = self.edge + self.node + self.gloss
        if total <= 0:
            raise ValueError("at least one similarity weight must be positive")
        object.__setattr__(self, "edge", self.edge / total)
        object.__setattr__(self, "node", self.node / total)
        object.__setattr__(self, "gloss", self.gloss / total)


class CombinedSimilarity:
    """Weighted combination of edge-, node-, and gloss-based measures.

    ``cache`` replaces the private unbounded pair memo with an external
    store (e.g. :class:`repro.runtime.cache.LRUCache` for bounded memory
    and hit/miss observability); any mapping with ``get``/
    ``__setitem__``/``__len__`` works.

    Without ``index`` it walks the network through the component
    measures (Wu-Palmer, Lin over ``ic`` and extended Lesk unless
    replaced), keyed by the concept-id pair.

    With ``index`` (a :class:`repro.runtime.pack.PackedIndex`, as
    :class:`repro.core.framework.XSDF` passes it) it takes the **slot
    path**, the one reader of the packed kernels: ``a`` and ``b`` are
    interned once per call, and one table keyed by the unordered slot
    pair holds the pair's *partial* — the weighted Wu-Palmer + Lin sum,
    from one lowest-common-subsumer fetch — and, once asked for, its
    upper bound.  :meth:`__call__` adds the exact gloss term to the
    partial, in the caller's argument order, and :meth:`upper_bound`
    the gloss bound; ``cache`` holds the exact scores by slot pair.  The
    operations and their order are the component measures' own, so
    scores are bit-identical to the network walk.  The slot path reads
    the index's own IC table and kernels, so ``ic`` or a custom measure
    next to ``index`` raises :class:`ValueError`.  Construction decodes
    the index's deferred string tables, so a damaged index raises here.
    """

    def __init__(
        self,
        network: SemanticNetwork,
        weights: SimilarityWeights | None = None,
        ic: InformationContent | None = None,
        edge_measure: ConceptSimilarity | None = None,
        node_measure: ConceptSimilarity | None = None,
        gloss_measure: ConceptSimilarity | None = None,
        index: "PackedIndex | None" = None,
        cache: PairCache | None = None,
    ):
        self.weights = weights or SimilarityWeights()
        self._cache: PairCache = cache if cache is not None else {}
        self._packed = index
        if index is not None:
            if ic is not None or any(
                measure is not None
                for measure in (edge_measure, node_measure, gloss_measure)
            ):
                raise ValueError(
                    "index= scores the default measures over the index's "
                    "own tables; ic= and custom measures need the "
                    "network walk (no index=)"
                )
            index.materialize()
            #: Slot path: slot-pair key -> (partial, bound or None).
            self._slot_table: dict[int, tuple[float, float | None]] = {}
            return
        self._edge = edge_measure or WuPalmerSimilarity(network)
        self._node = node_measure or LinSimilarity(network, ic=ic)
        self._gloss = gloss_measure or ExtendedLeskSimilarity(network)
        # Duck-typed: measures exposing upper_bound() enable the cheap
        # gloss bound; others fall back to the trivial bound 1.0.
        self._gloss_upper = getattr(self._gloss, "upper_bound", None)
        self._bound_cache: dict[tuple[str, str], float] = {}

    def _partial(self, packed: "PackedIndex", ia: int, ib: int) -> float:
        """The weighted edge + node sum of one slot pair.

        One ``pair_terms_of_slots`` fetch serves both terms; Wu-Palmer
        and Lin are symmetric, so either argument order gives the same
        float.
        """
        w = self.weights
        score = 0.0
        if not (w.edge or w.node):
            return score
        terms = packed.pair_terms_of_slots(ia, ib)
        if w.edge:
            score += w.edge * (
                0.0 if terms is None
                else wu_palmer_ratio(terms[1], terms[2], terms[3])
            )
        if w.node:
            ic_lcs = 0.0 if terms is None else packed.ic_of_slot(terms[0])
            score += w.node * lin_ratio(
                ic_lcs, packed.ic_of_slot(ia), packed.ic_of_slot(ib)
            )
        return score

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        w = self.weights
        packed = self._packed
        if packed is not None:
            ia = packed.slot(a)
            ib = packed.slot(b)
            key = _slot_pair_key(ia, ib)
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            entry = self._slot_table.get(key)
            if entry is None:
                score = self._partial(packed, ia, ib)
                self._slot_table[key] = (score, None)
            else:
                score = entry[0]
            if w.gloss:
                score += w.gloss * packed.lesk_similarity_of_slots(ia, ib)
            score = max(0.0, min(1.0, score))
            self._cache[key] = score
            return score
        key = (a, b) if a <= b else (b, a)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        score = 0.0
        if w.edge:
            score += w.edge * self._edge(a, b)
        if w.node:
            score += w.node * self._node(a, b)
        if w.gloss:
            score += w.gloss * self._gloss(a, b)
        score = max(0.0, min(1.0, score))
        self._cache[key] = score
        return score

    def upper_bound(self, a: str, b: str) -> float:
        """An exact float upper bound on ``self(a, b)``, cheaply.

        The edge and node components are computed exactly (both reduce
        to the memoized LCS lookup); only the gloss component — the
        expensive overlap DP — is replaced by its multiset bound (or by
        the trivial bound 1.0 when the gloss measure exposes none).
        The accumulation mirrors :meth:`__call__` term for term, so by
        monotonicity of IEEE rounding the result dominates the true
        score in *float* arithmetic — the property exact candidate
        pruning (:mod:`repro.core`) relies on.
        """
        if a == b:
            return 1.0
        w = self.weights
        packed = self._packed
        if packed is not None:
            ia = packed.slot(a)
            ib = packed.slot(b)
            key = _slot_pair_key(ia, ib)
            entry = self._slot_table.get(key)
            if entry is not None and entry[1] is not None:
                return entry[1]
            partial = (
                self._partial(packed, ia, ib) if entry is None else entry[0]
            )
            score = partial
            if w.gloss:
                score += w.gloss * packed.lesk_upper_bound_of_slots(ia, ib)
            score = max(0.0, min(1.0, score))
            self._slot_table[key] = (partial, score)
            return score
        key = (a, b) if a <= b else (b, a)
        cached = self._bound_cache.get(key)
        if cached is not None:
            return cached
        score = 0.0
        if w.edge:
            score += w.edge * self._edge(a, b)
        if w.node:
            score += w.node * self._node(a, b)
        if w.gloss:
            if self._gloss_upper is not None:
                score += w.gloss * self._gloss_upper(a, b)
            else:
                score += w.gloss * 1.0
        score = max(0.0, min(1.0, score))
        self._bound_cache[key] = score
        return score

    def cache_size(self) -> int:
        """Number of memoized concept pairs (for benchmarks/tests)."""
        return len(self._cache)
