"""Sphere memoization + exact pruning: signatures, parity, determinism.

Five batteries:

* :class:`TestNetworkFingerprint` / :class:`TestConfigFingerprint` —
  the network and configuration digests a batch journal is stamped
  with (mutation invalidation, the fields that change output bytes);
* :class:`TestSphereSignature` / :class:`TestPlanBuiltSignature` /
  :class:`TestSphereMemo` — the memo key machinery (ordered-member
  signatures of the sphere alone, the plan-built key equal to
  ``sphere_signature`` byte for byte, LRU behavior);
* :class:`TestMemoBitIdentity` / :class:`TestNoNetworkHashWhileScoring`
  — memoized replay is bit-identical to fresh computation and hands out
  fresh score dicts, and scoring never hashes the network;
* :class:`TestThreeWayParity` — the acceptance parity suite: for each
  weight mix of the three measures an :class:`XSDF` mounts (Wu-Palmer,
  Lin, extended Lesk, alone and combined), exhaustive == pruned ==
  pruned+memo on real corpus documents, each framework built from its
  own configuration;
* :class:`TestBatchDeterminism` — batch JSONL output is byte-identical
  regardless of document order and worker count.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import XSDFConfig
from repro.core.distances import DirectionWeightedDistance, resolve_policy
from repro.core.framework import XSDF, DocumentPlan
from repro.core.sphere import Sphere, build_sphere
from repro.runtime import BatchExecutor, SphereMemo, sphere_signature
from repro.runtime.memo import DEFAULT_MEMO_SIZE
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.network import SemanticNetwork
from repro.similarity.combined import SimilarityWeights
from repro.xmltree.dom import XMLNode, XMLTree

from ..core.test_prune_parity_property import WEIGHT_MIXES

SMALL_XML = (
    "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast>"
    "<plot>spies</plot></picture></films>"
)


def _fresh_network():
    return generate_network(
        GeneratorConfig(n_concepts=60, branching=3, mean_polysemy=2.0, seed=9)
    )


def _sphere_of(lexicon, config=None, label="star"):
    xsdf = XSDF(lexicon, config or XSDFConfig())
    tree = xsdf.build_tree(SMALL_XML)
    node = next(n for n in tree if n.label == label)
    return build_sphere(tree, node, (config or XSDFConfig()).sphere_radius)


class TestNetworkFingerprint:
    def test_stable_and_cached(self, lexicon):
        assert lexicon.fingerprint() == lexicon.fingerprint()

    def test_equal_content_equal_fingerprint(self):
        assert _fresh_network().fingerprint() == _fresh_network().fingerprint()

    def test_frequency_mutation_changes_fingerprint(self):
        network = _fresh_network()
        before = network.fingerprint()
        concept = next(iter(network)).id
        network.set_frequency(concept, 1234.0)
        assert network.fingerprint() != before

    def test_sense_order_mutation_changes_fingerprint(self):
        network = _fresh_network()
        word = next(
            w for w in sorted(network.words()) if network.polysemy(w) > 1
        )
        before = network.fingerprint()
        network.set_sense_order(
            word, [s.id for s in network.senses(word)][::-1]
        )
        assert network.fingerprint() != before


class TestConfigFingerprint:
    def test_equal_configs_share_a_digest(self):
        assert XSDFConfig().fingerprint() == XSDFConfig().fingerprint()

    def test_scoring_fields_change_the_digest(self):
        base = XSDFConfig().fingerprint()
        assert XSDFConfig(sphere_radius=3).fingerprint() != base
        assert XSDFConfig(concept_weight=0.7).fingerprint() != base
        assert (
            XSDFConfig(
                similarity_weights=SimilarityWeights(1, 0, 0)
            ).fingerprint()
            != base
        )

    def test_prune_changes_the_digest_and_memo_does_not(self):
        # Pruning omits provably-losing candidates from each node's
        # scores table, so a pruned and an exhaustive run write
        # different bytes; memoized replays are byte-identical.
        base = XSDFConfig().fingerprint()
        assert XSDFConfig(prune=False).fingerprint() != base
        assert XSDFConfig(memo=False).fingerprint() == base


class TestSphereSignature:
    def test_deterministic_for_equal_situations(self, lexicon):
        a = sphere_signature(_sphere_of(lexicon))
        b = sphere_signature(_sphere_of(lexicon))
        assert a == b

    def test_member_order_matters(self, lexicon):
        # Float accumulation follows sphere order, so the signature must
        # distinguish two spheres with equal member multisets but
        # different orders (see the repro.runtime.memo module docs).
        sphere = _sphere_of(lexicon)
        assert len(sphere.members) > 1
        reordered = Sphere(
            center=sphere.center,
            radius=sphere.radius,
            members=list(reversed(sphere.members)),
        )
        assert sphere_signature(sphere) != sphere_signature(reordered)


#: Tokens whose repr escapes something: quotes of both kinds,
#: backslashes, control characters, non-ASCII and non-BMP text.
_TRICKY_TOKENS = [
    "star", "it's", 'say "hi"', "both '\"", "back\\slash", "tab\there",
    "line\nbreak", "café", "naïve", "東京", "🎬", "\x7f", "",
]

_tokens = st.one_of(st.sampled_from(_TRICKY_TOKENS), st.text(max_size=6))


@st.composite
def _labeled_trees(draw):
    """Trees whose labels are one token or a compound of two or three."""
    nodes: list[XMLNode] = []
    for _ in range(draw(st.integers(1, 12))):
        tokens = draw(st.lists(_tokens, min_size=1, max_size=3))
        node = XMLNode(" ".join(tokens), tokens=tokens)
        if nodes:
            draw(st.sampled_from(nodes)).add_child(node)
        nodes.append(node)
    return XMLTree(nodes[0])


#: Uniform edge counts (int distances) and weighted policies whose
#: cost bands are floats such as 0.7, 1.4 and 2.0000000000000004.
_POLICIES = [
    None,
    "density",
    DirectionWeightedDistance(ascending_cost=0.7, descending_cost=1.3),
    DirectionWeightedDistance(ascending_cost=2.5, descending_cost=2.5),
]


def _assert_plan_key_is_sphere_signature(tree, center, radius, policy,
                                         network):
    sphere = build_sphere(
        tree, center, radius,
        policy=None if policy is None else resolve_policy(policy),
    )
    key = SphereMemo().signature(sphere, DocumentPlan(tree, network, {}))
    assert key == sphere_signature(sphere)
    return sphere


class TestPlanBuiltSignature:
    """``SphereMemo.signature`` renders the key's payload from the
    document plan's per-node segments; it must hash the very bytes
    :func:`sphere_signature` hashes."""

    @settings(max_examples=150, deadline=None)
    @given(
        tree=_labeled_trees(),
        radius=st.integers(0, 3),
        policy=st.sampled_from(_POLICIES),
        data=st.data(),
    )
    def test_plan_built_digest_equals_sphere_signature(
        self, lexicon, tree, radius, policy, data
    ):
        center = data.draw(st.sampled_from(tree.nodes))
        _assert_plan_key_is_sphere_signature(
            tree, center, radius, policy, lexicon
        )

    @pytest.mark.parametrize("policy", _POLICIES)
    def test_required_inputs(self, lexicon, policy):
        """Escaped labels, compound tokens and weighted float distances
        in a many-member sphere, and the one-member sphere whose member
        tuple keeps its trailing comma."""
        root = XMLNode("it's a \"film\"", tokens=["it's", 'a "film"'])
        star = root.add_child(XMLNode("café\\star", tokens=["café\\star"]))
        star.add_child(XMLNode("🎬"))
        root.add_child(XMLNode("first name", tokens=["first", "name"]))
        tree = XMLTree(root)
        sphere = _assert_plan_key_is_sphere_signature(
            tree, star, 3, policy, lexicon
        )
        assert len(sphere) > 1
        if policy is not None:
            assert all(isinstance(m.distance, float) for m in sphere)
        lone = XMLTree(XMLNode("naïve 'x'", tokens=["naïve", "'x'"]))
        sphere = _assert_plan_key_is_sphere_signature(
            lone, lone.root, 2, policy, lexicon
        )
        assert len(sphere) == 1


class TestSphereMemo:
    def test_roundtrip_and_stats(self, lexicon):
        memo = SphereMemo()
        tree = XSDF(lexicon, XSDFConfig()).build_tree(SMALL_XML)
        sphere = build_sphere(
            tree, tree.find("star"), XSDFConfig().sphere_radius
        )
        signature = memo.signature(sphere, DocumentPlan(tree, lexicon, {}))
        assert signature == sphere_signature(sphere)
        assert memo.get(signature) is None
        entry = (("star.n.01",), ((("star.n.01",), 0.5),), (), ())
        memo.put(signature, entry)
        assert memo.get(signature) == entry
        assert len(memo) == 1
        stats = memo.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["maxsize"] == DEFAULT_MEMO_SIZE

    def test_lru_eviction(self, lexicon):
        memo = SphereMemo(maxsize=1)
        memo.put(b"a", (("x",), (), (), ()))
        memo.put(b"b", (("y",), (), (), ()))
        assert memo.get(b"a") is None
        assert memo.get(b"b") == (("y",), (), (), ())
        assert memo.stats()["evictions"] == 1


class TestMemoBitIdentity:
    def test_replayed_document_is_bit_identical(self, lexicon):
        xsdf = XSDF(lexicon, XSDFConfig())
        assert xsdf.sphere_memo is not None
        first = xsdf.disambiguate_document(SMALL_XML)
        hits_before = xsdf.sphere_memo.stats()["hits"]
        second = xsdf.disambiguate_document(SMALL_XML)
        assert xsdf.sphere_memo.stats()["hits"] > hits_before
        assert len(first.assignments) == len(second.assignments)
        for a, b in zip(first.assignments, second.assignments):
            assert (a.chosen, a.score, a.concept_score, a.context_score) == (
                b.chosen, b.score, b.concept_score, b.context_score
            )
            assert a.scores == b.scores

    def test_replay_hands_out_fresh_dicts(self, lexicon):
        xsdf = XSDF(lexicon, XSDFConfig())
        first = xsdf.disambiguate_document(SMALL_XML)
        first.assignments[0].scores.clear()  # abuse the exposed mapping
        second = xsdf.disambiguate_document(SMALL_XML)
        assert second.assignments[0].scores  # memo entry unharmed

    def test_memo_off_by_config(self, lexicon):
        assert XSDF(lexicon, XSDFConfig(memo=False)).sphere_memo is None


class TestNoNetworkHashWhileScoring:
    """The memo key is the sphere alone: neither an XSDF nor a parallel
    batch hashes the network to score."""

    @pytest.fixture()
    def unhashable(self, monkeypatch):
        def refuse(network):
            raise AssertionError("scoring hashed the network")

        monkeypatch.setattr(SemanticNetwork, "fingerprint", refuse)

    def test_xsdf_memoizes_without_the_network_digest(
        self, lexicon, unhashable
    ):
        xsdf = XSDF(lexicon, XSDFConfig())
        first = xsdf.disambiguate_document(SMALL_XML)
        second = xsdf.disambiguate_document(SMALL_XML)
        assert xsdf.sphere_memo.stats()["hits"] > 0
        assert second.to_dict() == first.to_dict()

    def test_parallel_batch_without_the_network_digest(
        self, lexicon, unhashable
    ):
        docs = [("a", SMALL_XML), ("b", SMALL_XML)]
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        ) as executor:
            records = executor.run(docs)
            assert executor.runtime_stats()["generation"] >= 1
        expected = XSDF(lexicon, XSDFConfig()).disambiguate_document(
            SMALL_XML
        ).to_dict()
        assert [r.result for r in records] == [expected, expected]


def _assert_assignments_match(exhaustive, other, measure, doc):
    assert len(exhaustive.assignments) == len(other.assignments)
    for a, b in zip(exhaustive.assignments, other.assignments):
        context = f"measure={measure} doc={doc} node={a.node_index}"
        assert a.chosen == b.chosen, context
        assert a.score == b.score, context
        assert a.concept_score == b.concept_score, context
        assert a.context_score == b.context_score, context
        assert a.ambiguity == b.ambiguity, context
        # Pruned tables are subsets with exact values.
        for candidate, score in b.scores.items():
            assert a.scores[candidate] == score, context


class TestThreeWayParity:
    @pytest.fixture(scope="class")
    def parity_docs(self, corpus):
        return sorted(corpus.documents, key=lambda d: len(d.xml))[:3]

    def test_exhaustive_equals_pruned_equals_memoized(
        self, lexicon, parity_docs
    ):
        for measure, weights in WEIGHT_MIXES:
            exhaustive = XSDF(lexicon, XSDFConfig(
                similarity_weights=weights, prune=False, memo=False
            ))
            pruned = XSDF(lexicon, XSDFConfig(
                similarity_weights=weights, prune=True, memo=False
            ))
            memoized = XSDF(lexicon, XSDFConfig(similarity_weights=weights))
            for doc in parity_docs:
                expected = exhaustive.disambiguate_document(doc.xml)
                assert expected.assignments, (measure, doc.name)
                _assert_assignments_match(
                    expected, pruned.disambiguate_document(doc.xml),
                    measure, doc.name,
                )
                # Twice through the memoized instance: the second pass
                # replays every sphere from the memo.
                _assert_assignments_match(
                    expected, memoized.disambiguate_document(doc.xml),
                    measure, doc.name,
                )
                _assert_assignments_match(
                    expected, memoized.disambiguate_document(doc.xml),
                    measure, doc.name,
                )
            assert memoized.sphere_memo.stats()["hits"] > 0, measure


class TestBatchDeterminism:
    def test_output_invariant_under_doc_order_and_workers(
        self, lexicon, corpus
    ):
        docs = [
            (d.name, d.xml) for d in corpus.by_dataset("shakespeare")[:6]
        ]
        baseline = {
            r.name: r.to_json_line()
            for r in BatchExecutor(lexicon, XSDFConfig(), workers=1).run(docs)
        }
        assert len(baseline) == len(docs)
        for seed, workers in ((1, 1), (2, 2), (3, 3)):
            shuffled = list(docs)
            random.Random(seed).shuffle(shuffled)
            records = BatchExecutor(
                lexicon, XSDFConfig(), workers=workers
            ).run(shuffled)
            assert {r.name: r.to_json_line() for r in records} == baseline
