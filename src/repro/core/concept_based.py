"""Concept-based semantic disambiguation (paper Definition 8).

For a target node ``x`` with sphere ``S_d(x)`` and candidate sense
``s_p``::

    Concept_Score(s_p) = (1/|S_d(x)|) * sum over x_i in S_d(x) of
        max over senses s_j of x_i's label of
            Sim(s_p, s_j) * w_V(x_i.label)

i.e. every context node votes with its best-matching sense, its vote
scaled by the node's context-vector weight (structural proximity ×
frequency).  For compound candidates ``(s_p, s_q)`` the similarity is
the average of the per-token similarities (Eq. 10).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .candidates import Candidate
from .context_vector import context_vector
from .sphere import Sphere

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..runtime.cache import LRUCache
    from ..similarity.combined import CombinedSimilarity
    from .framework import DocumentPlan

#: One context member as scoring folds it: ``(inventory id, sense ids,
#: context-vector weight)``.
ContextEntry = tuple[int, tuple[str, ...], float]


class ConceptBasedScorer:
    """Scores candidate senses against a sphere context (Definition 8).

    The inner ``Max_j Sim(s_p, s_j^i)`` term of a candidate against one
    context sense inventory is memoized under one int that packs the
    candidate's id (interned here) with the inventory's id (interned in
    :attr:`inventory_ids` by the
    :class:`~repro.core.framework.DocumentPlan`): exact maxima in
    ``sense_cache``, an LRU the scorer creates unless
    ``sense_cache_size`` is 0 (``None`` leaves it unbounded), and the
    pruning bound's maxima in an unbounded table.  The ids are this
    scorer's own, so neither table can be shared.  Context labels recur
    across nodes and documents, so batch workloads skip most
    pairwise-similarity lookups; a cached value is the deterministic
    max over the identical sense set, so every score is unchanged.
    """

    def __init__(
        self,
        similarity: "CombinedSimilarity",
        sense_cache_size: int | None = 0,
    ):
        self._similarity = similarity
        self.sense_cache: "LRUCache | None" = None
        if sense_cache_size != 0:
            from ..runtime.cache import LRUCache

            self.sense_cache = LRUCache(maxsize=sense_cache_size)
        #: Sense-id tuple -> inventory id; new tuples take the next id.
        self.inventory_ids: dict[tuple[str, ...], int] = {}
        self._candidate_ids: dict[Candidate, int] = {}
        # The pruning bound's best-sense maxima, keyed like sense_cache
        # entries; bounds recur exactly as scores do.
        self._bound_cache: dict[int, float] = {}

    def _candidate_key(self, candidate: Candidate) -> int:
        """The candidate's id, shifted above every inventory id.

        ``key | inventory_id`` is then one int per (candidate, sense
        inventory) pair; inventory ids stay below ``2**32``.
        """
        ids = self._candidate_ids
        candidate_id = ids.get(candidate)
        if candidate_id is None:
            candidate_id = ids[candidate] = len(ids)
        return candidate_id << 32

    def _candidate_similarity(self, candidate: Candidate, sense_id: str) -> float:
        """``Sim((s_p, s_q), s_j)`` — the average over candidate parts.

        Summed left to right from ``0.0``, the sum CPython 3.11's
        ``sum()`` computes: 3.12's compensated ``sum()`` would move the
        low bits of scores with the interpreter version.
        """
        similarity = self._similarity
        total = 0.0
        for part in candidate:
            total += similarity(part, sense_id)
        return total / len(candidate)

    def context_inventory(
        self,
        sphere: Sphere,
        plan: "DocumentPlan",
        vector: dict[str, float] | None = None,
    ) -> list[ContextEntry]:
        """The per-member ``(inventory id, sense ids, weight)`` list.

        Built once per sphere (in member order — the accumulation order
        every score follows) by gathering each member's inventory from
        the document ``plan``, and shared between :meth:`score_one` and
        :meth:`upper_bound_one`.  ``vector`` lets callers supply the
        sphere's context vector when they already hold it (it is read,
        never mutated).
        """
        weights = vector if vector is not None else context_vector(sphere)
        senses = plan.senses
        inventories = plan.inventories
        context: list[ContextEntry] = []
        for node, _ in sphere.members:
            sense_ids = senses[node.index]
            if sense_ids:
                context.append((
                    inventories[node.index], sense_ids, weights[node.label]
                ))
        return context

    def score_one(
        self,
        candidate: Candidate,
        context: list[ContextEntry],
        size: int,
    ) -> float:
        """Exact Definition 8 score over a prebuilt context inventory.

        One accumulation in member order, whether a candidate is scored
        exhaustively or after its bound (exact pruning depends on this).
        """
        high = self._candidate_key(candidate)
        cache = self.sense_cache
        candidate_similarity = self._candidate_similarity
        total = 0.0
        for inventory, sense_ids, label_weight in context:
            key = high | inventory
            best = None if cache is None else cache.get(key)
            if best is None:
                best = max(
                    candidate_similarity(candidate, sense_id)
                    for sense_id in sense_ids
                )
                if cache is not None:
                    cache[key] = best
            total += best * label_weight
        return total / size if size else 0.0

    def _best_sense_bound(
        self, candidate: Candidate, sense_ids: tuple[str, ...]
    ) -> float:
        """Upper bound on ``Max_j Sim(candidate, s_j)``."""
        # The same left-to-right average as _candidate_similarity.
        upper_bound = self._similarity.upper_bound
        bounds = []
        for sense_id in sense_ids:
            total = 0.0
            for part in candidate:
                total += upper_bound(part, sense_id)
            bounds.append(total / len(candidate))
        return max(bounds)

    def upper_bound_one(
        self,
        candidate: Candidate,
        context: list[ContextEntry],
        size: int,
    ) -> float:
        """Float upper bound on :meth:`score_one` for exact pruning.

        Mirrors :meth:`score_one`'s accumulation with every pairwise
        similarity replaced by the similarity's own pointwise float
        dominator, :meth:`repro.similarity.combined
        .CombinedSimilarity.upper_bound`.  Because IEEE rounding is
        monotone and the op sequence is identical, the result dominates
        the exact score in float arithmetic — no epsilon needed.
        """
        high = self._candidate_key(candidate)
        bounds = self._bound_cache
        total = 0.0
        for inventory, sense_ids, label_weight in context:
            key = high | inventory
            best = bounds.get(key)
            if best is None:
                best = bounds[key] = self._best_sense_bound(
                    candidate, sense_ids
                )
            total += best * label_weight
        return total / size if size else 0.0
