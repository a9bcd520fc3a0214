"""Unit tests for the concept-based and context-based scorers.

The scorers run as the framework drives them: the concept scorer folds
a :class:`DocumentPlan`'s context inventory per candidate, the context
scorer compares each candidate against the sphere's context vector.
The literal Definition 8 and 10 transcriptions in
:mod:`tests.core.definitions` are the reference they must equal.
"""

from __future__ import annotations

import pytest

from repro.core.candidates import candidate_senses, context_sense_ids
from repro.core.concept_based import ConceptBasedScorer
from repro.core.context_based import ContextBasedScorer
from repro.core.context_vector import context_vector
from repro.core.framework import DocumentPlan
from repro.core.sphere import build_sphere
from repro.semnet.builders import NetworkBuilder
from repro.semnet.concepts import Relation
from repro.similarity.vector import vector_norm
from repro.xmltree.dom import XMLNode, XMLTree

from . import definitions


@pytest.fixture()
def network():
    """Two senses of 'star' with clearly different neighborhoods."""
    b = NetworkBuilder()
    b.synset("entity", ["entity"], "a thing that exists", freq=1)
    b.synset("person", ["person"], "a human being",
             hypernym="entity", freq=20)
    b.synset("actor", ["actor"], "a performer in movies",
             hypernym="person", freq=10)
    b.synset("star.p", ["star"], "an actor with a principal role in movies",
             hypernym="actor", freq=5)
    b.synset("object", ["object"], "a physical thing",
             hypernym="entity", freq=15)
    b.synset("body", ["body"], "an object in space",
             hypernym="object", freq=5)
    b.synset("star.c", ["star"], "a glowing body of hot gas in space",
             hypernym="body", freq=8)
    b.synset("cast", ["cast"], "the actors of a production as a group",
             hypernym="entity", freq=4)
    b.synset("movie", ["movie", "film"], "a story told by actors on screen",
             hypernym="entity", freq=9)
    b.relation("star.p", Relation.DERIVATION, "movie")
    b.relation("actor", Relation.MEMBER_HOLONYM, "cast")
    return b.build()


@pytest.fixture()
def tree():
    """movie -> cast -> {star, star}; movie -> body."""
    movie = XMLNode("movie")
    cast = movie.add_child(XMLNode("cast"))
    cast.add_child(XMLNode("star"))
    cast.add_child(XMLNode("star"))
    movie.add_child(XMLNode("body"))
    return XMLTree(movie)


class TestCandidates:
    def test_simple_label(self, network, tree):
        star = tree.find("star")
        assert candidate_senses(star, network) == [("star.p",), ("star.c",)]

    def test_unknown_label_no_candidates(self, network):
        root = XMLNode("zzz")
        node = root.add_child(XMLNode("qqq"))
        XMLTree(root)
        assert candidate_senses(node, network) == []

    def test_compound_cross_product(self, network):
        root = XMLNode("x")
        node = root.add_child(
            XMLNode("star cast", tokens=("star", "cast"))
        )
        XMLTree(root)
        candidates = candidate_senses(node, network)
        assert set(candidates) == {
            ("star.p", "cast"), ("star.c", "cast"),
        }

    def test_compound_one_known_token(self, network):
        root = XMLNode("x")
        node = root.add_child(XMLNode("star zz", tokens=("star", "zz")))
        XMLTree(root)
        assert candidate_senses(node, network) == [("star.p",), ("star.c",)]

    def test_context_sense_ids_for_compound(self, network):
        root = XMLNode("x")
        node = root.add_child(XMLNode("star cast", tokens=("star", "cast")))
        XMLTree(root)
        assert set(context_sense_ids(node, network)) == {
            "star.p", "star.c", "cast",
        }


def concept_scores(network, tree, sphere, candidates, similarity=None):
    """Definition 8 scores along the framework's plan path."""
    from repro.similarity.combined import CombinedSimilarity

    scorer = ConceptBasedScorer(similarity or CombinedSimilarity(network))
    plan = DocumentPlan(tree, network, scorer.inventory_ids)
    context = scorer.context_inventory(sphere, plan)
    return {
        candidate: scorer.score_one(candidate, context, len(sphere))
        for candidate in candidates
    }


class TestConceptBasedScorer:
    def test_movie_context_prefers_performer_sense(self, network, tree):
        star = tree.find("star")
        sphere = build_sphere(tree, star, 2)
        scores = concept_scores(
            network, tree, sphere, [("star.p",), ("star.c",)]
        )
        assert scores[("star.p",)] > scores[("star.c",)]

    def test_scores_bounded(self, network, tree):
        for node in tree:
            candidates = candidate_senses(node, network)
            if not candidates:
                continue
            sphere = build_sphere(tree, node, 2)
            scores = concept_scores(network, tree, sphere, candidates)
            for score in scores.values():
                assert 0.0 <= score <= 1.0

    def test_score_matches_score_all(self, network, tree):
        from repro.similarity.combined import CombinedSimilarity

        similarity = CombinedSimilarity(network)
        star = tree.find("star")
        sphere = build_sphere(tree, star, 1)
        single = definitions.concept_score(
            ("star.p",), sphere, network, similarity
        )
        batch = concept_scores(
            network, tree, sphere, [("star.p",)], similarity
        )
        assert single == batch[("star.p",)]

    def test_compound_candidate_averages(self, network, tree):
        from repro.similarity.combined import CombinedSimilarity

        similarity = CombinedSimilarity(network)
        sphere = build_sphere(tree, tree.find("star"), 1)

        def score(candidate):
            return definitions.concept_score(
                candidate, sphere, network, similarity
            )

        pair_score = score(("star.p", "star.c"))
        single_scores = [score(("star.p",)), score(("star.c",))]
        # Eq. 10 averages the per-token similarities inside each
        # context-node max, so the pair can never beat the better
        # single candidate (but may fall below the weaker one when the
        # argmax context senses differ).
        assert 0.0 <= pair_score <= max(single_scores)


class TestContextBasedScorer:
    def test_scores_bounded(self, network, tree):
        scorer = ContextBasedScorer(network, radius=2)
        star = tree.find("star")
        sphere = build_sphere(tree, star, 2)
        scores = scorer.score_all(
            [("star.p",), ("star.c",)], sphere, context_vector(sphere)
        )
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_stripping_prefers_context_supported_sense(self, network, tree):
        plain = ContextBasedScorer(network, radius=2)
        stripped = ContextBasedScorer(
            network, radius=2, strip_target_dimension=True
        )
        star = tree.find("star")
        sphere = build_sphere(tree, star, 2)
        vector = context_vector(sphere)
        candidates = [("star.p",), ("star.c",)]
        s_plain = plain.score_all(candidates, sphere, vector)
        s_stripped = stripped.score_all(candidates, sphere, vector)
        for candidate in candidates:
            assert s_stripped[candidate] == definitions.context_score(
                candidate, sphere, network, 2, strip_target_dimension=True
            )
        # With the self-dimension removed the performer sense (whose
        # neighborhood mentions cast/actor/movie words) must win.
        assert s_stripped[("star.p",)] > s_stripped[("star.c",)]
        # And the stripped margin is at least as discriminative.
        margin_plain = s_plain[("star.p",)] - s_plain[("star.c",)]
        margin_stripped = s_stripped[("star.p",)] - s_stripped[("star.c",)]
        assert margin_stripped >= margin_plain

    def test_vector_cache_reused(self, network, tree):
        scorer = ContextBasedScorer(network, radius=2)
        sphere = build_sphere(tree, tree.find("star"), 2)
        vector = context_vector(sphere)
        scorer.score_all([("star.p",)], sphere, vector)
        first = scorer._vector_cache[("star.p",)]
        concept_vector, norm = first
        assert norm == vector_norm(concept_vector)
        again = scorer.score_all([("star.p",)], sphere, vector)
        assert scorer._vector_cache[("star.p",)] is first
        assert again[("star.p",)] == definitions.context_score(
            ("star.p",), sphere, network, 2
        )

    def test_unknown_measure_rejected(self, network):
        with pytest.raises(ValueError):
            ContextBasedScorer(network, radius=2, vector_measure="manhattan")

    def test_alternative_measures_work(self, network, tree):
        for measure in ("jaccard", "pearson"):
            scorer = ContextBasedScorer(network, 2, vector_measure=measure)
            sphere = build_sphere(tree, tree.find("star"), 2)
            scores = scorer.score_all(
                [("star.p",), ("star.c",)], sphere, context_vector(sphere)
            )
            assert all(0.0 <= s <= 1.0 for s in scores.values())
            assert scores[("star.p",)] == definitions.context_score(
                ("star.p",), sphere, network, 2, measure=measure
            )
