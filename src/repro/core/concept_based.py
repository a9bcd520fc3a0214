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

from ..similarity.combined import ConceptSimilarity
from .candidates import Candidate
from .context_vector import context_vector
from .sphere import Sphere

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .framework import DocumentPlan


class ConceptBasedScorer:
    """Scores candidate senses against a sphere context (Definition 8).

    ``sense_cache`` optionally memoizes the inner ``Max_j Sim(s_p,
    s_j^i)`` term per (candidate, context-sense-inventory) key — e.g. a
    :class:`repro.runtime.cache.LRUCache`.  The same context labels
    recur across nodes and documents, so in batch workloads this skips
    most pairwise-similarity lookups entirely; cached values are the
    deterministic max over the identical sense set, leaving every score
    unchanged.
    """

    def __init__(self, similarity: ConceptSimilarity, sense_cache=None):
        self._similarity = similarity
        self._sense_cache = sense_cache
        # Memo for the pruning upper bound's best-sense term, keyed like
        # sense_cache entries; bounds recur exactly as scores do.
        self._bound_cache: dict[tuple[Candidate, tuple[str, ...]], float] = {}

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

    def _best_sense_similarity(
        self, candidate: Candidate, sense_ids: tuple[str, ...]
    ) -> float:
        """``Max_j Sim(candidate, s_j)`` over one context sense inventory."""
        cache = self._sense_cache
        key = (candidate, sense_ids)
        best = None if cache is None else cache.get(key)
        if best is None:
            best = max(
                self._candidate_similarity(candidate, sense_id)
                for sense_id in sense_ids
            )
            if cache is not None:
                cache[key] = best
        return best

    def context_inventory(
        self,
        sphere: Sphere,
        plan: "DocumentPlan",
        vector: dict[str, float] | None = None,
    ) -> list[tuple[tuple[str, ...], float]]:
        """The per-member ``(sense-ids, weight)`` list scoring folds over.

        Built once per sphere (in member order — the accumulation order
        every score follows) by gathering each member's sense-id tuple
        from the document ``plan``, and shared between
        :meth:`score_one` and :meth:`upper_bound_one`.  ``vector`` lets
        callers supply the sphere's context vector when they already
        hold it (it is read, never mutated).
        """
        weights = vector if vector is not None else context_vector(sphere)
        senses = plan.senses
        context: list[tuple[tuple[str, ...], float]] = []
        for node, _ in sphere.members:
            sense_ids = senses[node.index]
            if sense_ids:
                context.append((sense_ids, weights[node.label]))
        return context

    def score_one(
        self,
        candidate: Candidate,
        context: list[tuple[tuple[str, ...], float]],
        size: int,
    ) -> float:
        """Exact Definition 8 score over a prebuilt context inventory.

        One accumulation in member order, whether a candidate is scored
        exhaustively or after its bound (exact pruning depends on this).
        """
        total = 0.0
        best_sense = self._best_sense_similarity
        for sense_ids, label_weight in context:
            total += best_sense(candidate, sense_ids) * label_weight
        return total / size if size else 0.0

    def _best_sense_bound(
        self,
        candidate: Candidate,
        sense_ids: tuple[str, ...],
        upper_bound: ConceptSimilarity,
    ) -> float:
        """Upper bound on ``Max_j Sim(candidate, s_j)`` (memoized)."""
        key = (candidate, sense_ids)
        best = self._bound_cache.get(key)
        if best is None:
            # The same left-to-right average as _candidate_similarity.
            bounds = []
            for sense_id in sense_ids:
                total = 0.0
                for part in candidate:
                    total += upper_bound(part, sense_id)
                bounds.append(total / len(candidate))
            best = max(bounds)
            self._bound_cache[key] = best
        return best

    def upper_bound_one(
        self,
        candidate: Candidate,
        context: list[tuple[tuple[str, ...], float]],
        size: int,
        upper_bound: ConceptSimilarity,
    ) -> float:
        """Float upper bound on :meth:`score_one` for exact pruning.

        Mirrors :meth:`score_one`'s accumulation with every pairwise
        similarity replaced by ``upper_bound`` (a pointwise float
        dominator, e.g. :meth:`repro.similarity.combined
        .CombinedSimilarity.upper_bound`).  Because IEEE rounding is
        monotone and the op sequence is identical, the result dominates
        the exact score in float arithmetic — no epsilon needed.
        """
        total = 0.0
        cached = self._bound_cache.get
        for sense_ids, label_weight in context:
            best = cached((candidate, sense_ids))
            if best is None:
                best = self._best_sense_bound(candidate, sense_ids, upper_bound)
            total += best * label_weight
        return total / size if size else 0.0
