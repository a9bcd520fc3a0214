"""Flat bag-of-words baseline (the traditional WSD context model).

Ignores XML structure entirely: the context of every node is the whole
document treated as an unordered set of labels, every context label
weighted equally (the paradigm the paper's Motivation 3 argues against).
Used by the ablation benchmark that isolates the value of the sphere
neighborhood's structural weighting.
"""

from __future__ import annotations

from ..core.candidates import Candidate, context_sense_ids
from ..semnet.network import SemanticNetwork
from ..similarity.combined import CombinedSimilarity
from ..xmltree.dom import XMLNode, XMLTree
from .base import Baseline


class BagOfWordsDisambiguator(Baseline):
    """Whole-document unweighted context, concept-comparison scoring."""

    name = "bag-of-words"

    def __init__(self, network: SemanticNetwork):
        super().__init__(network)
        self._similarity = CombinedSimilarity(network)
        self._doc_cache: tuple[int, list[list[str]]] | None = None

    def _document_context(self, tree: XMLTree, node: XMLNode) -> list[list[str]]:
        # The context is the same for every node of a tree; cache per tree.
        if self._doc_cache is not None and self._doc_cache[0] == id(tree):
            sense_lists = self._doc_cache[1]
        else:
            sense_lists = [
                sense_ids
                for other in tree
                if (sense_ids := context_sense_ids(other, self.network))
            ]
            self._doc_cache = (id(tree), sense_lists)
        return sense_lists

    def score_candidates(
        self, tree: XMLTree, node: XMLNode, candidates: list[Candidate]
    ) -> dict[Candidate, float]:
        """Scores from plain bag-of-words gloss overlap with the document."""
        sense_lists = self._document_context(tree, node)
        scores: dict[Candidate, float] = {}
        for candidate in candidates:
            total = 0.0
            for sense_ids in sense_lists:
                total += max(
                    self.candidate_similarity(self._similarity, candidate, sid)
                    for sid in sense_ids
                )
            scores[candidate] = total / len(sense_lists) if sense_lists else 0.0
        return scores
