"""Edge-based semantic similarity measures.

These estimate similarity from the shortest IS-A path between concepts:

* :class:`WuPalmerSimilarity` — the measure the paper plugs in as
  ``Sim_Edge`` (Wu & Palmer, ACL 1994): path positions relative to the
  lowest common subsumer, ``2*d(lcs) / (d(a) + d(b))`` with depths
  counted from the taxonomy root.
* :class:`PathSimilarity` — the classic ``1 / (1 + path_length)``.
* :class:`LeacockChodorowSimilarity` — ``-log(len / 2D)`` normalized to
  [0, 1] by the network's maximum value.

All measures return values in [0, 1] and 0.0 when the concepts share no
IS-A ancestor (disconnected taxonomies).

Each walks the network.  With :mod:`repro.similarity.node` and
:mod:`repro.similarity.gloss` they are the oracle for the slot path of
:class:`repro.similarity.combined.CombinedSimilarity`, the packed
index's one consumer, which scores Wu-Palmer with the same
:func:`wu_palmer_ratio`.
"""

from __future__ import annotations

import math

from ..semnet.network import SemanticNetwork


def wu_palmer_ratio(depth_lcs: int, dist_a: int, dist_b: int) -> float:
    """Wu-Palmer's ``2*d(lcs) / (d(a) + d(b))`` from the LCS terms.

    ``d(a)`` and ``d(b)`` are measured through the LCS, as Wu-Palmer
    defines: its depth plus each concept's IS-A distance to it.  The
    integer sums are symmetric, so either argument order gives the same
    float.  Every path that scores Wu-Palmer calls it.
    """
    depth_a = depth_lcs + dist_a
    depth_b = depth_lcs + dist_b
    if depth_a + depth_b == 0:
        return 1.0
    return 2.0 * depth_lcs / (depth_a + depth_b)


class WuPalmerSimilarity:
    """Wu-Palmer conceptual similarity over a semantic network."""

    def __init__(self, network: SemanticNetwork):
        self._network = network

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        network = self._network
        lcs = network.lowest_common_subsumer(a, b)
        if lcs is None:
            return 0.0
        return wu_palmer_ratio(
            network.depth(lcs),
            network.hypernym_closure(a)[lcs],
            network.hypernym_closure(b)[lcs],
        )


class PathSimilarity:
    """Inverse shortest-IS-A-path similarity: ``1 / (1 + distance)``."""

    def __init__(self, network: SemanticNetwork):
        self._network = network

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        distance = self._network.taxonomic_distance(a, b)
        if distance is None:
            return 0.0
        return 1.0 / (1.0 + distance)


class LeacockChodorowSimilarity:
    """Leacock-Chodorow similarity, normalized into [0, 1].

    Raw LC is ``-log((dist + 1) / (2 * D))`` with ``D`` the taxonomy
    depth; dividing by the maximum attainable value ``-log(1 / (2D))``
    yields a unit-interval measure comparable with the others.
    """

    def __init__(self, network: SemanticNetwork):
        self._network = network
        self._scale = math.log(2.0 * max(1, network.max_taxonomy_depth))

    def __call__(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        distance = self._network.taxonomic_distance(a, b)
        if distance is None:
            return 0.0
        raw = -math.log((distance + 1.0) / math.exp(self._scale))
        return max(0.0, min(1.0, raw / self._scale))
