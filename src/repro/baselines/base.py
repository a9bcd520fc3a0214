"""Shared machinery for the comparative baselines.

Every baseline implements ``disambiguate_node(tree, node)`` returning a
:class:`~repro.core.results.SenseAssignment` (or None when the node has
no candidates), and inherits ``disambiguate_tree`` which applies it to a
target list — by default every node with at least one known sense, since
none of the published baselines perform ambiguity-based selection (the
paper's Motivation 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..core.candidates import Candidate, candidate_senses
from ..core.results import DisambiguationResult, SenseAssignment
from ..semnet.network import SemanticNetwork
from ..xmltree.dom import XMLNode, XMLTree


class Baseline(ABC):
    """Base class for XML disambiguation baselines."""

    #: Short identifier used in benchmark tables.
    name: str = "baseline"

    def __init__(self, network: SemanticNetwork):
        self.network = network

    @abstractmethod
    def score_candidates(
        self, tree: XMLTree, node: XMLNode, candidates: list[Candidate]
    ) -> dict[Candidate, float]:
        """Score every candidate sense of ``node`` (higher is better)."""

    def disambiguate_node(
        self, tree: XMLTree, node: XMLNode
    ) -> SenseAssignment | None:
        """Assign the best-scoring sense to one node."""
        candidates = candidate_senses(node, self.network)
        if not candidates:
            return None
        scores = self.score_candidates(tree, node, candidates)
        chosen = max(candidates, key=lambda c: scores.get(c, float("-inf")))
        return SenseAssignment(
            node_index=node.index,
            label=node.label,
            chosen=chosen,
            score=scores.get(chosen, 0.0),
            concept_score=0.0,
            context_score=0.0,
            ambiguity=0.0,
            scores=scores,
        )

    def disambiguate_tree(
        self, tree: XMLTree, targets: list[XMLNode] | None = None
    ) -> DisambiguationResult:
        """Disambiguate ``targets`` (default: every node with senses)."""
        if targets is None:
            targets = [
                node for node in tree if candidate_senses(node, self.network)
            ]
        assignments = []
        for node in targets:
            assignment = self.disambiguate_node(tree, node)
            if assignment is not None:
                assignments.append(assignment)
        return DisambiguationResult(
            assignments=assignments,
            n_nodes=len(tree),
            n_targets=len(targets),
            radius=0,
        )

    def candidate_similarity(
        self, similarity, candidate: Candidate, sense_id: str
    ) -> float:
        """Average per-token similarity for (possibly compound) candidates.

        Summed left to right from ``0.0`` like XSDF's own average, so
        scores keep their bits on every CPython version.
        """
        total = 0.0
        for part in candidate:
            total += similarity(part, sense_id)
        return total / len(candidate)
