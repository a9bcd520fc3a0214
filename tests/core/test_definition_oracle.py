"""The plan path's scores equal the literal definitions exactly.

:mod:`tests.core.definitions` recomputes every candidate's Definition 8
and Definition 10 score, and their Eq. 13 combination, from the sphere
alone, with ``Sim`` its own transcription of Definition 9.  The
framework derives the same scores from a per-document plan, walking the
network or reading a packed index, with pruning and the sphere memo
each on or off: eight frameworks, each built from its own
configuration.  Every reported score must equal the reference with
``==``, every pruned candidate must lose to the chosen one, and the
chosen sense must be the reference's arg-max (ties go to the earlier
sense).  Each document runs twice through each framework, so with the
memo on the second pass replays every outcome (the memo counts a hit
for each).

Target selection is held to Definition 3 the same way: the nodes
:func:`~repro.core.ambiguity.select_targets` returns, and the
``Amb_Deg`` the document plan records for each (reported as every
assignment's ``ambiguity``), equal :func:`definitions.thresh_amb` on
these trees, on trees with compound labels under random thresholds and
weights, and on the golden 60-document corpus.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.ambiguity import select_targets
from repro.core.candidates import candidate_senses
from repro.core.config import AmbiguityWeights, XSDFConfig
from repro.core.framework import XSDF
from repro.core.sphere import build_sphere
from repro.datasets import generate_test_corpus
from repro.runtime import PackedIndex
from repro.semnet import default_lexicon
from repro.semnet.ic import InformationContent
from repro.xmltree.dom import XMLNode, XMLTree

from . import definitions
from .test_core_properties import toy_network, trees  # noqa: F401
from .test_prune_parity_property import (
    ORDER_SENSITIVE_DOC,
    ORDER_SENSITIVE_SHAPE,
    _network_ic,
    _random_document,
    network_shapes,
)

#: (prune, memo): each mechanism on and off.
_MODES = list(itertools.product([False, True], repeat=2))

#: Packed index per generator shape, next to ``_network_ic``'s cache.
_INDEXES: dict[tuple, PackedIndex] = {}


@pytest.fixture(scope="module")
def toy_index(toy_network):  # noqa: F811
    return PackedIndex(toy_network)


def _frameworks(network, index, **config_fields):
    """A walk and an index-backed XSDF per (prune, memo) mode."""
    for packed in (None, index):
        for prune, memo in _MODES:
            yield XSDF(
                network,
                XSDFConfig(prune=prune, memo=memo, **config_fields),
                index=packed,
            )


def _literal_sim(network, ic):
    """:func:`definitions.sim` over ``network``, each ordered pair
    computed once."""
    values: dict[tuple[str, str], float] = {}

    def similarity(a: str, b: str) -> float:
        value = values.get((a, b))
        if value is None:
            value = values[(a, b)] = definitions.sim(a, b, network, ic)
        return value

    return similarity


def _check_all(frameworks, tree, similarity):
    """Every framework against one reference, computed once per target
    (the eight configurations differ only in mechanisms that must not
    change a score)."""
    reference: dict[int, tuple] = {}
    for xsdf in frameworks:
        _check_twice(xsdf, tree, similarity, reference)


def _check_twice(xsdf, tree, similarity, reference):
    """Two passes over ``tree``; with the memo on, the second replays."""
    assigned = _check_against_definitions(xsdf, tree, similarity, reference)
    _check_against_definitions(xsdf, tree, similarity, reference)
    memo = xsdf.sphere_memo
    assert (memo is not None) == xsdf.config.memo
    if memo is not None:
        assert memo.stats()["hits"] >= assigned


def _definitions(xsdf, tree, node, similarity):
    """``(candidates, concept, context, combined)`` by the definitions."""
    config = xsdf.config
    network = xsdf.network
    w_concept, w_context = config.normalized_approach_weights
    sphere = build_sphere(tree, node, config.sphere_radius)
    candidates = candidate_senses(node, network)
    concept = {
        c: definitions.concept_score(c, sphere, network, similarity)
        for c in candidates
    }
    context = {
        c: definitions.context_score(c, sphere, network, config.sphere_radius)
        for c in candidates
    }
    combined = {
        c: definitions.combined_score(
            concept[c], context[c], w_concept, w_context
        )
        for c in candidates
    }
    return candidates, concept, context, combined


def _check_targets(xsdf, tree, result):
    """Definition 3: the selected targets, in preorder, and the
    ``Amb_Deg`` the plan recorded for each."""
    config = xsdf.config
    expected = definitions.thresh_amb(
        tree, xsdf.network, config.ambiguity_threshold,
        config.ambiguity_weights,
    )
    targets = select_targets(
        tree, xsdf.network, threshold=config.ambiguity_threshold,
        weights=config.ambiguity_weights,
    )
    assert [node.index for node in targets] == list(expected)
    assert result.n_targets == len(expected)
    for a in result.assignments:
        assert a.ambiguity == expected[a.node_index], a.node_index


def _check_against_definitions(xsdf, tree, similarity, reference):
    config = xsdf.config
    result = xsdf.disambiguate_tree(tree)
    _check_targets(xsdf, tree, result)
    for a in result.assignments:
        expected = reference.get(a.node_index)
        if expected is None:
            expected = reference[a.node_index] = _definitions(
                xsdf, tree, tree[a.node_index], similarity
            )
        candidates, concept, context, combined = expected
        where = (
            f"node={a.node_index} index={xsdf.index is not None} "
            f"prune={config.prune} memo={config.memo}"
        )
        assert a.concept_score == concept[a.chosen], where
        assert a.context_score == context[a.chosen], where
        assert a.score == combined[a.chosen], where
        for candidate, score in a.scores.items():
            assert score == combined[candidate], where
        if not config.prune or len(candidates) == 1:
            assert list(a.scores) == candidates, where
        best = max(combined.values())
        assert a.chosen == next(
            c for c in candidates if combined[c] == best
        ), where
    return len(result.assignments)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(trees(), st.integers(1, 3))
def test_plan_scores_equal_definitions_on_toy_trees(
    toy_network, toy_index, tree, radius  # noqa: F811
):
    similarity = _literal_sim(toy_network, InformationContent(toy_network))
    _check_all(
        _frameworks(toy_network, toy_index, sphere_radius=radius),
        tree, similarity,
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shape=network_shapes, doc_seed=st.integers(0, 2**16))
@example(shape=ORDER_SENSITIVE_SHAPE, doc_seed=ORDER_SENSITIVE_DOC)
def test_plan_scores_equal_definitions_on_generated_networks(
    shape, doc_seed
):
    network, ic = _network_ic(shape)
    index = _INDEXES.get(shape)
    if index is None:
        if len(_INDEXES) > 32:
            _INDEXES.clear()
        index = _INDEXES[shape] = PackedIndex(network)
    tree = XSDF(network).build_tree(_random_document(network, doc_seed))
    _check_all(_frameworks(network, index), tree, _literal_sim(network, ic))


#: Toy-network words and compounds of them: a compound node carries its
#: tokens, and its label (the tokens joined) names no concept.
_COMPOUND_LABELS = st.sampled_from([
    ("alpha",), ("beta",), ("gamma",), ("delta",),
    ("alpha", "gamma"), ("gamma", "beta"), ("alpha", "delta"),
    ("delta", "epsilon"),
])


@st.composite
def compound_trees(draw):
    """Trees over toy words in which some labels are compounds."""
    picks = draw(st.lists(_COMPOUND_LABELS, min_size=2, max_size=30))
    nodes = [XMLNode(" ".join(tokens), tokens=tokens) for tokens in picks]
    for node in nodes[1:]:
        draw(st.sampled_from(nodes[:nodes.index(node)])).add_child(node)
    return XMLTree(nodes[0])


_UNIT = st.floats(0.0, 1.0)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    compound_trees(), _UNIT,
    st.builds(AmbiguityWeights, _UNIT, _UNIT, _UNIT),
)
@example(
    tree=XMLTree(XMLNode("alpha gamma", tokens=("alpha", "gamma"))),
    threshold=0.0, weights=AmbiguityWeights(),
)
def test_targets_equal_definition3_on_compound_trees(
    toy_network, toy_index, tree, threshold, weights  # noqa: F811
):
    xsdf = XSDF(
        toy_network,
        XSDFConfig(ambiguity_threshold=threshold, ambiguity_weights=weights),
        index=toy_index,
    )
    _check_targets(xsdf, tree, xsdf.disambiguate_tree(tree))


def test_targets_equal_definition3_on_the_golden_corpus():
    network = default_lexicon()
    xsdf = XSDF(network, XSDFConfig(), index=PackedIndex(network))
    for document in generate_test_corpus():
        tree = xsdf.build_tree(document.xml)
        _check_targets(xsdf, tree, xsdf.disambiguate_tree(tree))
