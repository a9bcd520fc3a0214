"""XML node ambiguity degree (paper Section 3.3) and structure degree.

Implements Propositions 1-3, the ambiguity degree of Definition 3, the
compound-label special case (average of the token degrees), target-node
selection by threshold, and the ``Struct_Deg`` measure (Eq. 14) used to
characterize the test corpora in Tables 1 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..semnet.network import SemanticNetwork
from ..xmltree.dom import XMLNode, XMLTree
from .config import AmbiguityWeights


def amb_polysemy(label: str, network: SemanticNetwork) -> float:
    """Proposition 1: ``(senses(l) - 1) / (Max(senses(SN)) - 1)``.

    0 for monosemous or unknown labels, 1 for the network's most
    polysemous word.  Unknown labels have no senses to choose between,
    which the paper's Assumption 4 treats as minimal ambiguity.
    """
    n_senses = network.polysemy(label)
    maximum = network.max_polysemy
    if maximum <= 1 or n_senses <= 1:
        return 0.0
    return (n_senses - 1) / (maximum - 1)


def amb_depth(node: XMLNode, tree: XMLTree) -> float:
    """Proposition 2: ``1 - depth(x) / Max(depth(T))``.

    Nodes near the root are broader, hence more ambiguous.
    """
    if tree.max_depth == 0:
        return 1.0
    return 1.0 - node.depth / tree.max_depth


def amb_density(node: XMLNode, tree: XMLTree) -> float:
    """Proposition 3: ``1 - density(x) / Max(density(T))``.

    Distinct children labels hint at a node's meaning, lowering its
    ambiguity.
    """
    if tree.max_density == 0:
        return 1.0
    return 1.0 - node.density / tree.max_density


def _single_token_degree(
    token: str,
    node: XMLNode,
    tree: XMLTree,
    network: SemanticNetwork,
    weights: AmbiguityWeights,
) -> float:
    polysemy = amb_polysemy(token, network)
    depth = amb_depth(node, tree)
    density = amb_density(node, tree)
    numerator = weights.polysemy * polysemy
    denominator = (
        weights.depth * (1.0 - depth) + weights.density * (1.0 - density) + 1.0
    )
    return numerator / denominator


def ambiguity_degree(
    node: XMLNode,
    tree: XMLTree,
    network: SemanticNetwork,
    weights: AmbiguityWeights | None = None,
) -> float:
    """Definition 3: ``Amb_Deg(x, T, SN)`` in [0, 1].

    For a compound label (two tokens with no single concept match) the
    degree is the average of the tokens' degrees (the paper's special
    case).
    """
    w = weights or AmbiguityWeights()
    if node.is_compound:
        # A left-to-right sum from 0.0, on every CPython version.
        total = 0.0
        for token in node.tokens:
            total += _single_token_degree(token, node, tree, network, w)
        return total / len(node.tokens)
    return _single_token_degree(node.label, node, tree, network, w)


@dataclass(frozen=True)
class AmbiguityReport:
    """Per-node ambiguity assessment produced by :func:`rank_nodes`."""

    node_index: int
    label: str
    degree: float
    polysemy: float
    depth_factor: float
    density_factor: float


def rank_nodes(
    tree: XMLTree,
    network: SemanticNetwork,
    weights: AmbiguityWeights | None = None,
) -> list[AmbiguityReport]:
    """Ambiguity reports for every node, most ambiguous first."""
    w = weights or AmbiguityWeights()
    reports = []
    for node in tree:
        reports.append(
            AmbiguityReport(
                node_index=node.index,
                label=node.label,
                degree=ambiguity_degree(node, tree, network, w),
                polysemy=amb_polysemy(node.label, network),
                depth_factor=amb_depth(node, tree),
                density_factor=amb_density(node, tree),
            )
        )
    reports.sort(key=lambda report: (-report.degree, report.node_index))
    return reports


def select_targets(
    tree: XMLTree,
    network: SemanticNetwork,
    threshold: float = 0.0,
    weights: AmbiguityWeights | None = None,
    degrees: dict[int, float] | None = None,
) -> list[XMLNode]:
    """Target nodes with ``Amb_Deg >= threshold`` (paper Section 3.3).

    Nodes whose label (or, for compounds, none of whose tokens) is known
    to the semantic network are never selected — there is no sense
    inventory to disambiguate against.  ``degrees``, when given,
    receives each selected target's ``Amb_Deg`` keyed by node index.
    """
    w = weights or AmbiguityWeights()
    targets = []
    for node in tree:
        if not _has_any_sense(node, network):
            continue
        degree = ambiguity_degree(node, tree, network, w)
        if degree >= threshold:
            targets.append(node)
            if degrees is not None:
                degrees[node.index] = degree
    return targets


def _has_any_sense(node: XMLNode, network: SemanticNetwork) -> bool:
    if network.has_word(node.label):
        return True
    return any(network.has_word(token) for token in node.tokens)


def struct_degree(
    node: XMLNode,
    tree: XMLTree,
    w_depth: float = 1.0 / 3.0,
    w_fan_out: float = 1.0 / 3.0,
    w_density: float = 1.0 / 3.0,
) -> float:
    """Eq. 14: the structural richness of one node, in [0, 1].

    Sum of normalized depth, fan-out, and density, with weights summing
    to 1 (the experiments use the uniform 1/3 mix).
    """
    total = w_depth + w_fan_out + w_density
    if total <= 0:
        raise ValueError("at least one structure weight must be positive")
    w_depth, w_fan_out, w_density = (
        w_depth / total, w_fan_out / total, w_density / total,
    )
    depth_part = node.depth / tree.max_depth if tree.max_depth else 0.0
    fan_part = node.fan_out / tree.max_fan_out if tree.max_fan_out else 0.0
    density_part = node.density / tree.max_density if tree.max_density else 0.0
    return w_depth * depth_part + w_fan_out * fan_part + w_density * density_part


def tree_ambiguity_degree(
    tree: XMLTree,
    network: SemanticNetwork,
    weights: AmbiguityWeights | None = None,
) -> float:
    """Average ``Amb_Deg`` over all nodes (Table 1 characterization).

    Summed left to right from ``0.0``, so the figure keeps its bits on
    every CPython version (3.12's ``sum()`` compensates float sums).
    """
    total = 0.0
    for node in tree:
        total += ambiguity_degree(node, tree, network, weights)
    return total / len(tree)


def tree_struct_degree(tree: XMLTree) -> float:
    """Average ``Struct_Deg`` over all nodes (Table 1 characterization),
    summed left to right from ``0.0`` like :func:`tree_ambiguity_degree`.
    """
    total = 0.0
    for node in tree:
        total += struct_degree(node, tree)
    return total / len(tree)
