"""Document statistics for Tables 1 and 3.

Computes the per-document and per-dataset structural characteristics the
paper reports: node counts, label polysemy, depth, fan-out, density —
plus the average ``Amb_Deg`` / ``Struct_Deg`` pair that defines the four
test groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.ambiguity import tree_ambiguity_degree, tree_struct_degree
from ..linguistics.pipeline import LinguisticPipeline
from ..semnet.network import SemanticNetwork
from ..xmltree.dom import XMLTree, build_tree
from ..xmltree.parser import parse
from .corpus import Corpus, GeneratedDocument


@dataclass(frozen=True)
class DocumentStats:
    """Structural statistics of one document tree (Table 3 columns)."""

    n_nodes: int
    avg_polysemy: float
    max_polysemy: int
    avg_depth: float
    max_depth: int
    avg_fan_out: float
    max_fan_out: int
    avg_density: float
    max_density: int
    amb_degree: float
    struct_degree: float


def _mean(values: list[float]) -> float:
    """Arithmetic mean summed left to right from ``0.0``, so Table 1 and 3
    figures keep their bits on every CPython version (3.12's ``sum()``
    compensates float sums)."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def document_tree(
    document: GeneratedDocument, network: SemanticNetwork
) -> XMLTree:
    """Build the pre-processed tree of a generated document."""
    pipeline = LinguisticPipeline(known=network.has_word)
    return build_tree(
        parse(document.xml).root,
        label_processor=pipeline.process_label,
        value_processor=pipeline.process_value,
    )


def compute_stats(tree: XMLTree, network: SemanticNetwork) -> DocumentStats:
    """All Table 1/3 statistics for one tree."""
    polysemies = [network.polysemy(node.label) for node in tree]
    depths = [node.depth for node in tree]
    fan_outs = [node.fan_out for node in tree]
    densities = [node.density for node in tree]
    return DocumentStats(
        n_nodes=len(tree),
        avg_polysemy=_mean(polysemies),
        max_polysemy=max(polysemies),
        avg_depth=_mean(depths),
        max_depth=max(depths),
        avg_fan_out=_mean(fan_outs),
        max_fan_out=max(fan_outs),
        avg_density=_mean(densities),
        max_density=max(densities),
        amb_degree=tree_ambiguity_degree(tree, network),
        struct_degree=tree_struct_degree(tree),
    )


def aggregate(stats: list[DocumentStats]) -> DocumentStats:
    """Average a list of per-document stats (max fields take the max)."""
    if not stats:
        raise ValueError("cannot aggregate empty stats")
    return DocumentStats(
        n_nodes=round(_mean([s.n_nodes for s in stats])),
        avg_polysemy=_mean([s.avg_polysemy for s in stats]),
        max_polysemy=max(s.max_polysemy for s in stats),
        avg_depth=_mean([s.avg_depth for s in stats]),
        max_depth=max(s.max_depth for s in stats),
        avg_fan_out=_mean([s.avg_fan_out for s in stats]),
        max_fan_out=max(s.max_fan_out for s in stats),
        avg_density=_mean([s.avg_density for s in stats]),
        max_density=max(s.max_density for s in stats),
        amb_degree=_mean([s.amb_degree for s in stats]),
        struct_degree=_mean([s.struct_degree for s in stats]),
    )


def dataset_stats(
    corpus: Corpus, network: SemanticNetwork
) -> dict[str, DocumentStats]:
    """Aggregated statistics per dataset (the rows of Table 3)."""
    out: dict[str, DocumentStats] = {}
    for name in corpus.datasets():
        per_doc = [
            compute_stats(document_tree(doc, network), network)
            for doc in corpus.by_dataset(name)
        ]
        out[name] = aggregate(per_doc)
    return out


def collection_struct_degree(trees: list[XMLTree]) -> float:
    """``Struct_Deg`` averaged over a document set with *shared* maxima.

    Eq. 14 normalizes by ``Max(depth(T))`` etc.; when characterizing a
    whole collection (Table 1), per-document normalization would rate a
    uniformly flat catalog as "deep" (every leaf sits at its tiny local
    maximum).  Normalizing by the collection-wide maxima instead makes
    the group characterization meaningful: deep/wide/diverse documents
    score high, flat ones low.
    """
    if not trees:
        raise ValueError("cannot characterize an empty collection")
    max_depth = max(tree.max_depth for tree in trees) or 1
    max_fan = max(tree.max_fan_out for tree in trees) or 1
    max_density = max(tree.max_density for tree in trees) or 1
    total = 0.0
    n = 0
    for tree in trees:
        for node in tree:
            total += (
                node.depth / max_depth
                + node.fan_out / max_fan
                + node.density / max_density
            ) / 3.0
            n += 1
    return total / n


def group_struct_degrees(
    corpus: Corpus, network: SemanticNetwork
) -> dict[int, float]:
    """Collection-normalized ``Struct_Deg`` per test group (Table 1).

    All four groups share the same normalization maxima so the values
    are comparable across the 2x2 ambiguity-structure quadrants.
    """
    trees_by_group: dict[int, list[XMLTree]] = {}
    all_trees: list[XMLTree] = []
    for doc in corpus:
        tree = document_tree(doc, network)
        trees_by_group.setdefault(doc.group, []).append(tree)
        all_trees.append(tree)
    max_depth = max(tree.max_depth for tree in all_trees) or 1
    max_fan = max(tree.max_fan_out for tree in all_trees) or 1
    max_density = max(tree.max_density for tree in all_trees) or 1
    out: dict[int, float] = {}
    for group, trees in sorted(trees_by_group.items()):
        total = 0.0
        n = 0
        for tree in trees:
            for node in tree:
                total += (
                    node.depth / max_depth
                    + node.fan_out / max_fan
                    + node.density / max_density
                ) / 3.0
                n += 1
        out[group] = total / n
    return out


def group_stats(
    corpus: Corpus, network: SemanticNetwork
) -> dict[int, DocumentStats]:
    """Aggregated statistics per test group (the cells of Table 1)."""
    out: dict[int, DocumentStats] = {}
    for group in (1, 2, 3, 4):
        docs = corpus.by_group(group)
        if not docs:
            continue
        per_doc = [
            compute_stats(document_tree(doc, network), network) for doc in docs
        ]
        out[group] = aggregate(per_doc)
    return out
