"""Information content over a weighted semantic network (``SN-bar``).

Node-based similarity measures (Resnik, Lin, Jiang-Conrath) need the
information content ``IC(c) = -log p(c)`` where ``p(c)`` is the
probability of encountering an instance of concept ``c`` in a reference
corpus.  Following Resnik, the count of a concept includes the counts of
all its IS-A descendants, so probabilities are monotone along the
taxonomy and ``IC`` decreases toward the root.

Laplace smoothing (+1 per concept) keeps IC finite for concepts that
never occur in the corpus.
"""

from __future__ import annotations

import math

from .network import SemanticNetwork


def lin_ratio(ic_lcs: float, ic_a: float, ic_b: float) -> float:
    """Lin's ``2 * IC(lcs) / (IC(a) + IC(b))``, clamped into [0, 1].

    0.0 when the denominator is not positive.  The one copy of the
    formula: the IC tables, :class:`repro.similarity.node.LinSimilarity`
    and :class:`repro.similarity.combined.CombinedSimilarity` all call
    it, so every path computes the same float.
    """
    denominator = ic_a + ic_b
    if denominator <= 0:
        return 0.0
    return max(0.0, min(1.0, 2.0 * ic_lcs / denominator))


class InformationContent:
    """Precomputed IC values for every concept in a network.

    Parameters
    ----------
    network:
        The (frequency-weighted) semantic network.
    smoothing:
        Pseudo-count added to every concept's own frequency, so unseen
        concepts get small-but-finite probability.
    """

    def __init__(self, network: SemanticNetwork, smoothing: float = 1.0):
        self._network = network
        self._smoothing = smoothing
        self._ic: dict[str, float] = {}
        self._max_ic = 1.0
        self._compute()

    def _compute(self) -> None:
        n = len(self._network)
        total = self._network.total_frequency + self._smoothing * n
        if total <= 0:
            raise ValueError("network has no frequency mass to compute IC from")
        # Smoothed cumulative count: raw cumulative + smoothing * subtree size.
        subtree_sizes = self._subtree_sizes()
        for concept in self._network:
            cum = self._network.cumulative_frequency(concept.id)
            cum += self._smoothing * subtree_sizes[concept.id]
            p = min(cum / total, 1.0)
            self._ic[concept.id] = -math.log(p) if p > 0 else math.inf
        finite = [v for v in self._ic.values() if math.isfinite(v)]
        self._max_ic = max(finite) if finite else 1.0

    def _subtree_sizes(self) -> dict[str, int]:
        """Number of distinct concepts in each concept's IS-A subtree."""
        cache: dict[str, frozenset[str]] = {}

        def visit(cid: str, trail: set[str]) -> frozenset[str]:
            if cid in cache:
                return cache[cid]
            if cid in trail:
                return frozenset()
            trail.add(cid)
            members = {cid}
            for child in self._network.hyponyms(cid):
                members |= visit(child, trail)
            trail.discard(cid)
            result = frozenset(members)
            cache[cid] = result
            return result

        return {cid.id: len(visit(cid.id, set())) for cid in self._network}

    # -- queries ---------------------------------------------------------------

    def ic(self, concept_id: str) -> float:
        """Information content of one concept."""
        return self._ic[concept_id]

    @property
    def max_ic(self) -> float:
        """Highest finite IC in the network (for normalization)."""
        return self._max_ic

    def resnik(self, a: str, b: str) -> float:
        """IC of the lowest common subsumer (0 when none exists)."""
        lcs = self._network.lowest_common_subsumer(a, b)
        if lcs is None:
            return 0.0
        return self._ic[lcs]

    def lin(self, a: str, b: str) -> float:
        """Lin similarity: ``2 * IC(lcs) / (IC(a) + IC(b))`` in [0, 1]."""
        if a == b:
            return 1.0
        return lin_ratio(self.resnik(a, b), self._ic[a], self._ic[b])

    def jiang_conrath_distance(self, a: str, b: str) -> float:
        """Jiang-Conrath distance: ``IC(a) + IC(b) - 2 * IC(lcs)``."""
        return max(0.0, self._ic[a] + self._ic[b] - 2.0 * self.resnik(a, b))
