"""Sphere context vectors (paper Definitions 6-7).

The context of a target node is represented as a sparse weighted vector
whose dimensions are the distinct node labels of its sphere
neighborhood.  Weights combine:

* *structural proximity* (Assumption 5): ``Struct(x_i, S_d(x)) =
  1 - Dist(x, x_i) / (d + 1)`` — closer context nodes influence
  disambiguation more, and even the outermost ring keeps a non-null
  weight;
* *occurrence frequency* (Assumption 6): ``Freq(l, S_d(x))`` sums the
  structural proximities of all sphere nodes carrying label ``l``;
* normalization: ``w(l) = 2 * Freq / (|S_d(x)| + 1)`` keeps weights in
  [0, 1].

The same construction applies to concept spheres in the semantic network
(Section 3.5.2): rings follow semantic relations, and each concept
contributes its weight to *every* synonym word it carries — the
"linguistic pre-processing of concept labels" step, which maximizes the
overlap between XML label dimensions and concept word dimensions.
"""

from __future__ import annotations

from ..semnet.network import SemanticNetwork
from ..xmltree.dom import XMLNode, XMLTree
from .sphere import Sphere, build_sphere


def struct_proximity(distance: int, radius: int) -> float:
    """``Struct`` factor of Definition 7 for one context node."""
    return 1.0 - distance / (radius + 1.0)


def label_frequencies(sphere: Sphere) -> dict[str, float]:
    """``Freq(l, S_d(x))`` for every distinct label in the sphere.

    The ``Struct`` factor depends only on the ring distance, so it is
    derived once per distinct distance (same expression and operand
    order as :func:`struct_proximity` — the floats are identical) and
    reused across the members of each ring.
    """
    frequencies: dict[str, float] = {}
    radius_plus_one = sphere.radius + 1.0
    ring_weights: dict[float, float] = {}
    frequencies_get = frequencies.get
    for node, distance in sphere.members:
        weight = ring_weights.get(distance)
        if weight is None:
            weight = 1.0 - distance / radius_plus_one
            ring_weights[distance] = weight
        label = node.label
        frequencies[label] = frequencies_get(label, 0.0) + weight
    return frequencies


def context_vector(sphere: Sphere) -> dict[str, float]:
    """The XML context vector ``V_d(x)`` (Definition 6-7).

    Definition 7 claims ``w = 2 * Freq / (|S|+1)`` lies in [0, 1], but
    its implicit maximum (every sphere node sharing one label at
    ``Struct = 1/2``) only holds for ``d = 1``: for larger radii a label
    concentrated at distance 1 carries ``Struct > 1/2`` per occurrence
    and the ratio exceeds 1 (found by property-based testing).  Weights
    are therefore clamped; relative ordering — all that scoring uses —
    is unaffected except in that degenerate single-label regime.
    """
    normalizer = (len(sphere) + 1.0) / 2.0
    return {
        label: min(1.0, freq / normalizer)
        for label, freq in label_frequencies(sphere).items()
    }


def node_context_vector(
    tree: XMLTree, node: XMLNode, radius: int
) -> dict[str, float]:
    """Convenience: build the sphere and its context vector in one call."""
    return context_vector(build_sphere(tree, node, radius))


def concept_context_vector(
    network: SemanticNetwork, concept_id: str, radius: int
) -> dict[str, float]:
    """The semantic-network context vector ``V_d(s_p)`` of one concept.

    Rings follow all semantic relation types (Definition 2's ``R``); a
    concept at distance ``dist`` contributes ``Struct = 1 - dist/(d+1)``
    to the dimension of each of its synonym words.  Normalization
    divides by ``(|S_d(s_p)| + 1) / 2`` exactly as in the XML case.
    """
    distances = network.sphere(concept_id, radius)
    frequencies: dict[str, float] = {}
    for cid, dist in distances.items():
        weight = struct_proximity(dist, radius)
        for word in network.concept(cid).words:
            frequencies[word] = frequencies.get(word, 0.0) + weight
    normalizer = (len(distances) + 1.0) / 2.0
    return {word: freq / normalizer for word, freq in frequencies.items()}


def compound_concept_context_vector(
    network: SemanticNetwork, concept_ids: tuple[str, ...], radius: int
) -> dict[str, float]:
    """Context vector of a sense *combination* (Definition 10 special case).

    The sphere of ``(s_p, s_q)`` is the union ``S_d(s_p) ∪ S_d(s_q)``; a
    concept reachable from both keeps its minimal distance.
    """
    merged: dict[str, int] = {}
    for concept_id in concept_ids:
        for cid, dist in network.sphere(concept_id, radius).items():
            if cid not in merged or dist < merged[cid]:
                merged[cid] = dist
    frequencies: dict[str, float] = {}
    for cid, dist in merged.items():
        weight = struct_proximity(dist, radius)
        for word in network.concept(cid).words:
            frequencies[word] = frequencies.get(word, 0.0) + weight
    normalizer = (len(merged) + 1.0) / 2.0
    return {word: freq / normalizer for word, freq in frequencies.items()}
