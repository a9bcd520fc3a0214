"""Semantic document clustering — the paper's clustering application.

"XML document classification and clustering (grouping together documents
based on their semantic similarities, rather than performing
syntactic-only processing)" — this module provides concept-profile
vectors for documents and a deterministic agglomerative clusterer over
them, so vocabularies that never share a tag still cluster when they
share meaning.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core.framework import XSDF
from ..similarity.vector import cosine_similarity
from ..xmltree.dom import XMLTree


def concept_profile(xsdf: XSDF, tree: XMLTree) -> dict[str, float]:
    """The semantic fingerprint of one document.

    Counts assigned concepts plus (half-weighted) their direct hypernyms
    so closely related concepts overlap without flattening everything to
    the upper ontology.
    """
    counts: Counter[str] = Counter()
    for assignment in xsdf.disambiguate_tree(tree).assignments:
        counts[assignment.concept_id] += 1.0
        for parent in xsdf.network.hypernyms(assignment.concept_id):
            counts[parent] += 0.5
    return dict(counts)


def label_profile(tree: XMLTree) -> dict[str, float]:
    """The syntactic fingerprint: raw label frequencies (for contrast)."""
    return dict(Counter(node.label for node in tree))


@dataclass
class Clustering:
    """Result of agglomerative clustering: index groups over the input."""

    clusters: list[list[int]] = field(default_factory=list)

    def cluster_of(self, index: int) -> int:
        """The cluster ID holding node ``index`` (-1 when absent)."""
        for cluster_id, members in enumerate(self.clusters):
            if index in members:
                return cluster_id
        raise KeyError(index)

    def __len__(self) -> int:
        return len(self.clusters)


def cluster_profiles(
    profiles: list[dict[str, float]],
    threshold: float = 0.3,
) -> Clustering:
    """Average-linkage agglomerative clustering with a similarity floor.

    Repeatedly merges the most similar cluster pair until no pair's
    average cosine similarity reaches ``threshold``.  Deterministic:
    ties break toward the lowest indices.
    """
    clusters: list[list[int]] = [[i] for i in range(len(profiles))]

    def linkage(a: list[int], b: list[int]) -> float:
        # Left to right from 0.0: the same merges on every CPython version.
        total = 0.0
        for i in a:
            for j in b:
                total += cosine_similarity(profiles[i], profiles[j])
        return total / (len(a) * len(b))

    while len(clusters) > 1:
        best_pair: tuple[int, int] | None = None
        best_score = threshold
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                score = linkage(clusters[i], clusters[j])
                if score > best_score:
                    best_pair = (i, j)
                    best_score = score
        if best_pair is None:
            break
        i, j = best_pair
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    clusters.sort(key=lambda members: members[0])
    return Clustering(clusters=clusters)


def cluster_documents(
    xsdf: XSDF,
    documents: list[str],
    threshold: float = 0.3,
) -> Clustering:
    """End-to-end: parse, disambiguate, profile, and cluster XML texts."""
    profiles = [
        concept_profile(xsdf, xsdf.build_tree(text)) for text in documents
    ]
    return cluster_profiles(profiles, threshold=threshold)
