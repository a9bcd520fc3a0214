"""Semantic XML matching — the paper's schema-matching application.

The paper motivates XSDF with "XML schema matching and integration
(considering the semantic meanings and relations between schema
elements)".  This module implements that consumer: given two XML
documents (or schemas rendered as documents), disambiguate both and
produce label correspondences scored by concept identity or semantic
similarity — `picture ≈ movie`, `star ≈ actor` — which syntactic
matchers cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.framework import XSDF
from ..similarity.combined import CombinedSimilarity
from ..xmltree.dom import NodeKind


@dataclass(frozen=True)
class Correspondence:
    """One matched label pair with its evidence."""

    label_a: str
    label_b: str
    concept_a: str
    concept_b: str
    score: float

    @property
    def exact(self) -> bool:
        """True when both labels resolved to the *same* concept."""
        return self.concept_a == self.concept_b


class SemanticMatcher:
    """Matches element vocabularies of two documents by meaning.

    Parameters
    ----------
    xsdf:
        A configured disambiguation framework; non-identical concept
        pairs are scored by the paper-default combined measure
        (Definition 9) over its network.
    min_score:
        Soft correspondences below this similarity are dropped.
    """

    def __init__(self, xsdf: XSDF, min_score: float = 0.5):
        self._xsdf = xsdf
        self._similarity = CombinedSimilarity(xsdf.network)
        self._min_score = min_score

    def _element_concepts(self, xml_text: str) -> dict[str, str]:
        """label -> chosen concept for the document's element labels."""
        tree = self._xsdf.build_tree(xml_text)
        result = self._xsdf.disambiguate_tree(tree)
        mapping: dict[str, str] = {}
        for assignment in result.assignments:
            node = tree[assignment.node_index]
            if node.kind is NodeKind.VALUE_TOKEN:
                continue  # schema matching concerns tags, not values
            mapping.setdefault(assignment.label, assignment.concept_id)
        return mapping

    def match(self, xml_a: str, xml_b: str) -> list[Correspondence]:
        """Correspondences between the two documents' tag vocabularies.

        Exact matches (same concept) come first, then soft matches by
        descending similarity; each label participates in at most one
        correspondence (greedy one-to-one assignment).
        """
        concepts_a = self._element_concepts(xml_a)
        concepts_b = self._element_concepts(xml_b)
        scored: list[Correspondence] = []
        for label_a, concept_a in concepts_a.items():
            for label_b, concept_b in concepts_b.items():
                if concept_a == concept_b:
                    score = 1.0
                else:
                    score = self._similarity(concept_a, concept_b)
                if score >= self._min_score:
                    scored.append(
                        Correspondence(label_a, label_b, concept_a,
                                       concept_b, score)
                    )
        scored.sort(key=lambda c: (-c.score, c.label_a, c.label_b))
        taken_a: set[str] = set()
        taken_b: set[str] = set()
        out: list[Correspondence] = []
        for correspondence in scored:
            if correspondence.label_a in taken_a:
                continue
            if correspondence.label_b in taken_b:
                continue
            taken_a.add(correspondence.label_a)
            taken_b.add(correspondence.label_b)
            out.append(correspondence)
        return out
