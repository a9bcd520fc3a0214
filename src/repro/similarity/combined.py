"""The paper's combined semantic similarity measure (Definition 9).

``Sim(c1, c2, SN-bar) = w_edge * Sim_edge + w_node * Sim_node +
w_gloss * Sim_gloss`` with non-negative weights summing to 1.  The
component measures are the ones the paper names: Wu-Palmer (edge), Lin
(node), and normalized extended Lesk (gloss) — each swappable.

Pair results are memoized: disambiguation evaluates the same concept
pairs repeatedly across context nodes, and caching makes the
concept-based scorer's complexity linear in distinct pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, MutableMapping

from ..semnet.ic import InformationContent
from ..semnet.network import SemanticNetwork
from .edge import WuPalmerSimilarity
from .gloss import ExtendedLeskSimilarity
from .node import LinSimilarity

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..runtime.pack import PackedIndex

#: A concept-to-concept similarity function.
ConceptSimilarity = Callable[[str, str], float]

#: Anything CombinedSimilarity can memoize pairs into: a plain dict or
#: a dict-compatible store such as :class:`repro.runtime.cache.LRUCache`
#: (only ``get`` / ``__setitem__`` / ``__len__`` are touched).
PairCache = MutableMapping[tuple[str, str], float]


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

    ``index`` (a :class:`repro.runtime.pack.PackedIndex`) routes the
    default component measures through its interned flat-array
    kernels, with scores bit-identical to the network walk.  ``cache``
    replaces the private unbounded pair memo with an external store
    (e.g. :class:`repro.runtime.cache.LRUCache` for bounded memory and
    hit/miss observability); any mapping with ``get``/``__setitem__``/
    ``__len__`` works.
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
        self._edge = edge_measure or WuPalmerSimilarity(network, index=index)
        # The node measure needs the weighted network; build IC once and
        # share it when the caller did not supply a measure.
        if node_measure is not None:
            self._node = node_measure
        else:
            self._node = LinSimilarity(network, ic=ic, index=index)
        self._gloss = gloss_measure or ExtendedLeskSimilarity(
            network, index=index
        )
        self._cache: PairCache = cache if cache is not None else {}
        # Duck-typed: measures exposing upper_bound() enable the cheap
        # gloss bound; others fall back to the trivial bound 1.0.
        self._gloss_upper = getattr(self._gloss, "upper_bound", None)
        self._bound_cache: dict[tuple[str, str], float] = {}

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        key = (a, b) if a <= b else (b, a)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        w = self.weights
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
        key = (a, b) if a <= b else (b, a)
        cached = self._bound_cache.get(key)
        if cached is not None:
            return cached
        w = self.weights
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
