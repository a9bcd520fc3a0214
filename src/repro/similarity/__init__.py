"""Semantic similarity measures (paper Definition 9 and Section 2.1).

Edge-based (Wu-Palmer, path, Leacock-Chodorow), node-based (Lin, Resnik,
Jiang-Conrath), gloss-based (normalized extended Lesk), their weighted
combination, and sparse-vector measures (cosine, Jaccard, Pearson).
"""

from .combined import CombinedSimilarity, SimilarityWeights
from .edge import LeacockChodorowSimilarity, PathSimilarity, WuPalmerSimilarity
from .gloss import ExtendedLeskSimilarity
from .node import JiangConrathSimilarity, LinSimilarity, ResnikSimilarity
from .vector import (
    VECTOR_MEASURES,
    cosine_similarity,
    jaccard_similarity,
    pearson_similarity,
)

__all__ = [
    "CombinedSimilarity",
    "ExtendedLeskSimilarity",
    "JiangConrathSimilarity",
    "LeacockChodorowSimilarity",
    "LinSimilarity",
    "PathSimilarity",
    "ResnikSimilarity",
    "SimilarityWeights",
    "VECTOR_MEASURES",
    "WuPalmerSimilarity",
    "cosine_similarity",
    "jaccard_similarity",
    "pearson_similarity",
]
