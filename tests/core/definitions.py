"""The paper's definitions, transcribed literally (test oracle).

The production scorers fold over a per-document plan
(:class:`repro.core.framework.DocumentPlan`), share context inventories
and norms between candidates, memoize and prune.  The functions here
recompute one candidate's score against one sphere straight from the
definitions, sharing and caching nothing, so tests can hold the
optimized path to them with ``==``:

* :func:`amb_polysemy`, :func:`amb_depth` and :func:`amb_density` —
  Propositions 1-3;
* :func:`amb_deg` — Definition 3, a compound label's degree the average
  of its tokens' degrees;
* :func:`thresh_amb` — target selection by ``Thresh_Amb``
  (Section 3.3), each target with its ``Amb_Deg``;
* :func:`xml_context_vector` — Definitions 6-7, with the documented
  clamp of the normalized weight to 1;
* :func:`sim` — Definition 9, the paper's uniform mix of Wu-Palmer,
  Lin and the normalized extended-Lesk gloss overlap, read from the
  network's closures, glosses and IC table (nothing of
  :mod:`repro.similarity`'s concept measures);
* :func:`concept_score` — Definition 8 (Eq. 10 for compound
  candidates);
* :func:`context_score` — Definition 10 (Eq. 12 for compound
  candidates);
* :func:`combined_score` — Eq. 13.

The ambiguity functions read only the tree (labels, tokens, parent and
child links) and the network's sense inventory (``senses``, ``words``).
The sense inventories (:func:`~repro.core.candidates.context_sense_ids`),
the concept spheres of the semantic network, its information-content
table and the vector measure of Definition 10 are the library's own:
they are the inputs the definitions are stated over, not part of the
scoring path under test.
"""

from __future__ import annotations

from repro.core.candidates import Candidate, context_sense_ids
from repro.core.config import AmbiguityWeights
from repro.core.context_vector import (
    compound_concept_context_vector,
    concept_context_vector,
)
from repro.core.sphere import Sphere
from repro.linguistics.stemmer import stem
from repro.semnet.ic import InformationContent
from repro.semnet.network import SemanticNetwork
from repro.similarity.vector import VECTOR_MEASURES
from repro.xmltree.dom import XMLNode, XMLTree

#: Definition 9's weights in the paper's experiments: one third each.
SIM_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def max_senses(network: SemanticNetwork) -> int:
    """``Max(senses(SN))``: the most senses any word of the network has."""
    return max(
        (len(network.senses(word)) for word in network.words()), default=0
    )


def amb_polysemy(
    label: str, network: SemanticNetwork, most_senses: int
) -> float:
    """Proposition 1: ``(senses(l) - 1) / (Max(senses(SN)) - 1)``.

    ``most_senses`` is :func:`max_senses` of ``network``.  A label with
    at most one sense (unknown labels included) is minimally ambiguous
    (Assumption 4), and so is every label of a network without a
    polysemous word.
    """
    senses = len(network.senses(label))
    if senses <= 1 or most_senses <= 1:
        return 0.0
    return (senses - 1) / (most_senses - 1)


def _depth(node: XMLNode) -> int:
    """Edges from the root: the length of the node's parent chain."""
    depth = 0
    while node.parent is not None:
        node = node.parent
        depth += 1
    return depth


def _density(node: XMLNode) -> int:
    """``x.f-bar``: how many distinct labels the node's children carry."""
    return len({child.label for child in node.children})


def amb_depth(node: XMLNode, max_depth: int) -> float:
    """Proposition 2: ``1 - depth(x) / Max(depth(T))``; 1 when the tree
    is a single node (``Max(depth(T)) = 0``)."""
    if max_depth == 0:
        return 1.0
    return 1.0 - _depth(node) / max_depth


def amb_density(node: XMLNode, max_density: int) -> float:
    """Proposition 3: ``1 - density(x) / Max(density(T))``; 1 when no
    node of the tree has children (``Max(density(T)) = 0``)."""
    if max_density == 0:
        return 1.0
    return 1.0 - _density(node) / max_density


def _amb_deg(node, network, weights, most_senses, max_depth, max_density):
    """Definition 3 for ``node``, given the network's and the tree's
    maxima (:func:`max_senses`, ``Max(depth(T))``, ``Max(density(T))``)."""
    depth = amb_depth(node, max_depth)
    density = amb_density(node, max_density)

    def degree(label: str) -> float:
        return weights.polysemy * amb_polysemy(label, network, most_senses) / (
            weights.depth * (1.0 - depth)
            + weights.density * (1.0 - density)
            + 1.0
        )

    if len(node.tokens) == 1:
        return degree(node.label)
    # A compound label: the average of its tokens' degrees, summed left
    # to right from 0.0.
    total = 0.0
    for token in node.tokens:
        total += degree(token)
    return total / len(node.tokens)


def amb_deg(
    node: XMLNode,
    tree: XMLTree,
    network: SemanticNetwork,
    weights: AmbiguityWeights,
) -> float:
    """Definition 3: ``Amb_Deg(x, T, SN)``.

    ``w_Polysemy * Amb_Polysemy / (w_Depth * (1 - Amb_Depth) +
    w_Density * (1 - Amb_Density) + 1)``; for a compound label (more
    than one token) the average of that degree over its tokens.
    """
    return _amb_deg(
        node, network, weights, max_senses(network),
        max(_depth(other) for other in tree),
        max(_density(other) for other in tree),
    )


def thresh_amb(
    tree: XMLTree,
    network: SemanticNetwork,
    threshold: float,
    weights: AmbiguityWeights,
) -> dict[int, float]:
    """Target selection (Section 3.3): ``{preorder index: Amb_Deg}``, in
    preorder, of the nodes with ``Amb_Deg >= Thresh_Amb``.

    A node none of whose words (its label, or one of its tokens) has a
    sense in the network offers nothing to choose between and is never
    a target.
    """
    most_senses = max_senses(network)
    max_depth = max(_depth(node) for node in tree)
    max_density = max(_density(node) for node in tree)
    targets: dict[int, float] = {}
    for node in tree:
        if not any(network.senses(word) for word in (node.label, *node.tokens)):
            continue
        degree = _amb_deg(
            node, network, weights, most_senses, max_depth, max_density
        )
        if degree >= threshold:
            targets[node.index] = degree
    return targets


def xml_context_vector(sphere: Sphere) -> dict[str, float]:
    """Definitions 6-7: ``V_d(x)`` over the sphere's labels.

    ``Struct = 1 - Dist / (d + 1)`` per member, ``Freq(l)`` sums it over
    the members labeled ``l``, and ``w(l) = 2 * Freq / (|S| + 1)``,
    clamped to 1.
    """
    frequencies: dict[str, float] = {}
    for member in sphere:
        struct = 1.0 - member.distance / (sphere.radius + 1.0)
        label = member.node.label
        frequencies[label] = frequencies.get(label, 0.0) + struct
    return {
        label: min(1.0, freq / ((len(sphere) + 1.0) / 2.0))
        for label, freq in frequencies.items()
    }


def _root_depth(network: SemanticNetwork, concept_id: str) -> int:
    """IS-A edges from the nearest taxonomy root down to the concept."""
    closure = network.hypernym_closure(concept_id)
    return min(
        (dist for cid, dist in closure.items() if not network.hypernyms(cid)),
        default=0,
    )


def _lcs(network: SemanticNetwork, a: str, b: str):
    """``(lcs, dist(a, lcs), dist(b, lcs))``, or None with no shared
    ancestor: the deepest shared IS-A ancestor, ties to the smaller
    distance sum and then to the larger concept id."""
    closure_a = network.hypernym_closure(a)
    closure_b = network.hypernym_closure(b)
    shared = [cid for cid in closure_a if cid in closure_b]
    if not shared:
        return None
    lcs = max(shared, key=lambda cid: (
        _root_depth(network, cid), -(closure_a[cid] + closure_b[cid]), cid
    ))
    return lcs, closure_a[lcs], closure_b[lcs]


def _wu_palmer(network: SemanticNetwork, a: str, b: str) -> float:
    """``Sim_Edge``: ``2*d(lcs) / (d(a) + d(b))``, depths through the LCS."""
    found = _lcs(network, a, b)
    if found is None:
        return 0.0
    lcs, dist_a, dist_b = found
    depth = _root_depth(network, lcs)
    if (depth + dist_a) + (depth + dist_b) == 0:
        return 1.0
    return 2.0 * depth / ((depth + dist_a) + (depth + dist_b))


def _lin(
    network: SemanticNetwork, ic: InformationContent, a: str, b: str
) -> float:
    """``Sim_Node``: ``2*IC(lcs) / (IC(a) + IC(b))``, clamped to [0, 1]."""
    found = _lcs(network, a, b)
    ic_lcs = 0.0 if found is None else ic.ic(found[0])
    denominator = ic.ic(a) + ic.ic(b)
    if denominator <= 0:
        return 0.0
    return max(0.0, min(1.0, 2.0 * ic_lcs / denominator))


def _extended_gloss(network: SemanticNetwork, concept_id: str) -> list[str]:
    """The concept's gloss tokens, its stemmed synonym words, then the
    gloss tokens of each direct neighbour."""
    concept = network.concept(concept_id)
    tokens = list(concept.gloss_tokens())
    for word in concept.words:
        tokens.extend(stem(part) for part in word.split())
    for neighbor in network.neighbors(concept_id):
        tokens.extend(network.concept(neighbor).gloss_tokens())
    return tokens


def _greedy_overlap(a: list[str], b: list[str]) -> float:
    """Banerjee & Pedersen's greedy overlap: take the longest common run
    (ties to the earliest start in ``a``, then in ``b``), add its
    squared length, cut it from both sequences, repeat."""
    a, b = list(a), list(b)
    score = 0.0
    while True:
        starts_in_b: dict[str, list[int]] = {}
        for j, token in enumerate(b):
            starts_in_b.setdefault(token, []).append(j)
        best = (0, 0, 0)
        for i, token in enumerate(a):
            for j in starts_in_b.get(token, ()):
                length = 1
                while (
                    i + length < len(a) and j + length < len(b)
                    and a[i + length] == b[j + length]
                ):
                    length += 1
                if length > best[0]:
                    best = (length, i, j)
        length, i, j = best
        if not length:
            return score
        score += float(length * length)
        del a[i:i + length]
        del b[j:j + length]


def _lesk(network: SemanticNetwork, a: str, b: str) -> float:
    """``Sim_Gloss``: ``sqrt(overlap) / shorter bag``, clamped to 1, the
    overlap taken with the smaller concept id first."""
    if a > b:
        a, b = b, a
    tokens_a = _extended_gloss(network, a)
    tokens_b = _extended_gloss(network, b)
    if not tokens_a or not tokens_b:
        return 0.0
    raw = _greedy_overlap(tokens_a, tokens_b)
    return min(1.0, (raw ** 0.5) / min(len(tokens_a), len(tokens_b)))


def sim(
    a: str, b: str, network: SemanticNetwork, ic: InformationContent
) -> float:
    """Definition 9: ``Sim(c1, c2, SN-bar)``.

    ``w_Edge * Sim_Edge + w_Node * Sim_Node + w_Gloss * Sim_Gloss``
    under :data:`SIM_WEIGHTS`, summed left to right from 0.0 and
    clamped to [0, 1]; a concept is maximally similar to itself.
    """
    if a == b:
        return 1.0
    w_edge, w_node, w_gloss = SIM_WEIGHTS
    score = 0.0
    score += w_edge * _wu_palmer(network, a, b)
    score += w_node * _lin(network, ic, a, b)
    score += w_gloss * _lesk(network, a, b)
    return max(0.0, min(1.0, score))


def concept_score(
    candidate: Candidate,
    sphere: Sphere,
    network: SemanticNetwork,
    similarity,
) -> float:
    """Definition 8: ``Concept_Score(s_p, S_d(x), SN)``.

    ``(1/|S_d(x)|) * sum over x_i in S_d(x) of max_j Sim(s_p, s_j^i) *
    w_V(x_i.label)``; a compound candidate's ``Sim`` is the average over
    its parts (Eq. 10), and a member without senses adds nothing.
    ``similarity`` is ``Sim`` as a function of the concept pair, e.g.
    :func:`sim` with the network and its IC table bound.
    """
    weights = xml_context_vector(sphere)
    total = 0.0
    for member in sphere:
        sense_ids = context_sense_ids(member.node, network)
        if not sense_ids:
            continue
        averages = []
        for sense_id in sense_ids:
            # Left to right from 0.0: the summation order the library
            # states, whatever the interpreter's sum() does.
            part_total = 0.0
            for part in candidate:
                part_total += similarity(part, sense_id)
            averages.append(part_total / len(candidate))
        total += max(averages) * weights[member.node.label]
    return total / len(sphere) if len(sphere) else 0.0


def context_score(
    candidate: Candidate,
    sphere: Sphere,
    network: SemanticNetwork,
    radius: int,
    measure: str = "cosine",
    strip_target_dimension: bool = False,
) -> float:
    """Definition 10: ``Context_Score(s_p, S_d(x), SN)``.

    The vector measure (cosine in the paper) between ``V_d(x)`` and the
    candidate's concept-sphere vector ``V_d(s_p)``; a compound
    candidate's sphere is the union of its parts' spheres (Eq. 12).
    ``strip_target_dimension`` is the library's extension that drops
    the target's own label and tokens from both vectors.
    """
    xml_vector = xml_context_vector(sphere)
    if len(candidate) == 1:
        concept_vector = concept_context_vector(network, candidate[0], radius)
    else:
        concept_vector = compound_concept_context_vector(
            network, candidate, radius
        )
    if strip_target_dimension:
        drop = {sphere.center.label, *sphere.center.tokens}
        xml_vector = {k: v for k, v in xml_vector.items() if k not in drop}
        concept_vector = {
            k: v for k, v in concept_vector.items() if k not in drop
        }
    return VECTOR_MEASURES[measure](xml_vector, concept_vector)


def combined_score(
    concept: float, context: float, w_concept: float, w_context: float
) -> float:
    """Eq. 13: the weighted combination of the two processes."""
    return w_concept * concept + w_context * context
