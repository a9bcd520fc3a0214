"""The plan path's scores equal the literal definitions exactly.

:mod:`tests.core.definitions` recomputes every candidate's Definition 8
and Definition 10 score, and their Eq. 13 combination, from the sphere
alone.  The framework derives the same scores from a per-document plan,
with pruning and the sphere memo each on or off; every reported score
must equal the reference with ``==``, every pruned candidate must lose
to the chosen one, and the chosen sense must be the reference's
arg-max (ties go to the earlier sense).  Each document runs twice
through one framework, so with the memo on the second pass replays
every outcome (the memo counts a hit for each).

The reference reads ``Sim`` from the framework's own similarity
object: the greedy gloss overlap is not symmetric for every concept
pair, and the pair cache keys both orders alike, so a pair's value can
depend on which order computed it first.  Sharing the object keeps
that out of a test of the scoring path.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import candidate_senses
from repro.core.config import XSDFConfig
from repro.core.framework import XSDF
from repro.core.sphere import build_sphere
from repro.semnet.ic import InformationContent
from repro.similarity.combined import CombinedSimilarity

from . import definitions
from .test_core_properties import toy_network, trees  # noqa: F401
from .test_prune_parity_property import (
    _network_ic,
    _random_document,
    network_shapes,
)

#: (prune, memo): each mechanism on and off.
_MODES = list(itertools.product([False, True], repeat=2))


def _framework(network, similarity, **config_fields):
    """An XSDF scoring through ``similarity``, memo as configured."""
    return XSDF(network, XSDFConfig(**config_fields), similarity=similarity)


def _check_twice(xsdf, tree, similarity):
    """Two passes over ``tree``; with the memo on, the second replays."""
    assigned = _check_against_definitions(xsdf, tree, similarity)
    _check_against_definitions(xsdf, tree, similarity)
    memo = xsdf.sphere_memo
    assert (memo is not None) == xsdf.config.memo
    if memo is not None:
        assert memo.stats()["hits"] >= assigned


def _check_against_definitions(xsdf, tree, similarity):
    config = xsdf.config
    network = xsdf.network
    w_concept, w_context = config.normalized_approach_weights
    result = xsdf.disambiguate_tree(tree)
    for a in result.assignments:
        node = tree[a.node_index]
        sphere = build_sphere(tree, node, config.sphere_radius)
        candidates = candidate_senses(node, network)
        concept = {
            c: definitions.concept_score(c, sphere, network, similarity)
            for c in candidates
        }
        context = {
            c: definitions.context_score(
                c, sphere, network, config.sphere_radius
            )
            for c in candidates
        }
        combined = {
            c: definitions.combined_score(
                concept[c], context[c], w_concept, w_context
            )
            for c in candidates
        }
        where = f"node={a.node_index} prune={config.prune} memo={config.memo}"
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
def test_plan_scores_equal_definitions_on_toy_trees(toy_network, tree, radius):
    similarity = CombinedSimilarity(
        toy_network, ic=InformationContent(toy_network)
    )
    for prune, memo in _MODES:
        xsdf = _framework(
            toy_network, similarity,
            sphere_radius=radius, prune=prune, memo=memo,
        )
        _check_twice(xsdf, tree, similarity)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shape=network_shapes, doc_seed=st.integers(0, 2**16))
def test_plan_scores_equal_definitions_on_generated_networks(
    shape, doc_seed
):
    network, ic = _network_ic(shape)
    similarity = CombinedSimilarity(network, ic=ic)
    xml = _random_document(network, doc_seed)
    for prune, memo in _MODES:
        xsdf = _framework(network, similarity, prune=prune, memo=memo)
        _check_twice(xsdf, xsdf.build_tree(xml), similarity)
