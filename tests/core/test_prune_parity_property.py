"""Property-based exact-pruning parity on random synthetic networks.

The fixed-corpus parity suite (``tests/runtime/test_memo.py``) pins
exhaustive == pruned on the curated lexicon; these properties assert
the same contract where hypothesis chooses the semantic network shape,
the document shape, and the weight mix of ``Sim`` (Definition 9) —
including the totalized ``(score, sense-rank)`` tie-break, which
synthetic networks exercise heavily (structurally identical senses
produce exact score ties).  Each framework is built from its own
configuration, with its own similarity and caches: ``Sim`` is a
function of the concept pair, so independent instances must agree.
The weight mixes are the three measures an :class:`XSDF` mounts —
Wu-Palmer, Lin and extended Lesk — alone and in the paper's uniform
combination.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import DisambiguationApproach, XSDFConfig
from repro.core.framework import XSDF
from repro.runtime import PackedIndex
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.ic import InformationContent
from repro.similarity.combined import SimilarityWeights

#: (network, ic) per generator shape — hypothesis revisits shapes and
#: network construction dominates runtime.
_NETWORK_CACHE: dict[tuple, tuple] = {}

network_shapes = st.tuples(
    st.integers(min_value=0, max_value=499),     # generator seed
    st.sampled_from([40, 90]),                   # concepts
    st.sampled_from([2, 4]),                     # branching
    st.sampled_from([1.5, 3.0]),                 # mean polysemy
)


def _network_ic(shape):
    if shape not in _NETWORK_CACHE:
        if len(_NETWORK_CACHE) > 32:
            _NETWORK_CACHE.clear()
        seed, n_concepts, branching, polysemy = shape
        network = generate_network(GeneratorConfig(
            n_concepts=n_concepts,
            branching=branching,
            mean_polysemy=polysemy,
            seed=seed,
        ))
        _NETWORK_CACHE[shape] = (network, InformationContent(network))
    return _NETWORK_CACHE[shape]


def _random_document(network, seed: int) -> str:
    """A small random XML document over the network's vocabulary."""
    rng = random.Random(seed)
    words = sorted(network.words())

    def element(depth: int) -> str:
        tag = rng.choice(words)
        n_children = rng.randint(0, 3) if depth < 3 else 0
        body = "".join(element(depth + 1) for _ in range(n_children))
        if not body and rng.random() < 0.5:
            body = rng.choice(words)
        return f"<{tag}>{body}</{tag}>"

    root = rng.choice(words)
    body = "".join(element(1) for _ in range(rng.randint(2, 4)))
    return f"<{root}>{body}</{root}>"


#: (name, weights): each mounted measure alone, then Definition 9's mix.
WEIGHT_MIXES = [
    ("wu-palmer", SimilarityWeights(1, 0, 0)),
    ("lin", SimilarityWeights(0, 1, 0)),
    ("lesk", SimilarityWeights(0, 0, 1)),
    ("combined", SimilarityWeights()),
]

#: A network and document on which the gloss overlap's argument order
#: once moved a score, whichever framework filled its pair cache first:
#: node 18's candidate ``syn00021.ruli`` read 0.2692476 pruned and
#: 0.2691561 exhaustive.  Each property below runs it as an example.
ORDER_SENSITIVE_SHAPE = (0, 40, 4, 1.5)
ORDER_SENSITIVE_DOC = 1


def _assert_same_outcome(expected, other, context):
    """Same chosen senses and scores; a pruned table is an exact subset."""
    assert len(expected.assignments) == len(other.assignments), context
    for a, b in zip(expected.assignments, other.assignments):
        where = f"{context} node={a.node_index}"
        assert a.node_index == b.node_index, where
        assert a.chosen == b.chosen, where
        assert a.score == b.score, where
        assert a.concept_score == b.concept_score, where
        assert a.context_score == b.context_score, where
        for candidate, score in b.scores.items():
            assert a.scores[candidate] == score, where


class TestPrunedArgmaxProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=network_shapes,
        doc_seed=st.integers(0, 2**16),
        approach=st.sampled_from([
            DisambiguationApproach.CONCEPT_BASED,
            DisambiguationApproach.COMBINED,
        ]),
    )
    @example(
        shape=ORDER_SENSITIVE_SHAPE, doc_seed=ORDER_SENSITIVE_DOC,
        approach=DisambiguationApproach.COMBINED,
    )
    def test_pruned_argmax_equals_exhaustive(self, shape, doc_seed, approach):
        """Chosen sense, tie-break, and reported scores must ``==``."""
        network, _ = _network_ic(shape)
        xml = _random_document(network, doc_seed)
        for measure, weights in WEIGHT_MIXES:
            expected = XSDF(network, XSDFConfig(
                approach=approach, similarity_weights=weights,
                prune=False, memo=False,
            )).disambiguate_document(xml)
            pruned = XSDF(network, XSDFConfig(
                approach=approach, similarity_weights=weights,
                prune=True, memo=False,
            )).disambiguate_document(xml)
            _assert_same_outcome(expected, pruned, (
                f"measure={measure} approach={approach.value} "
                f"shape={shape} doc_seed={doc_seed}"
            ))


class TestIndexBackedEqualsWalk:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shape=network_shapes, doc_seed=st.integers(0, 2**16))
    @example(shape=ORDER_SENSITIVE_SHAPE, doc_seed=ORDER_SENSITIVE_DOC)
    def test_batch_framework_equals_fresh_walk(self, shape, doc_seed):
        """The framework a batch builds (packed index, bounded LRUs,
        pruning and memo) scores two documents as a fresh exhaustive
        network walk scores each, whatever its caches saw first."""
        network, _ = _network_ic(shape)
        fast = XSDF(
            network, XSDFConfig(), index=PackedIndex(network),
            cache_size=65536,
        )
        for seed in (doc_seed, doc_seed + 1):
            xml = _random_document(network, seed)
            walk = XSDF(network, XSDFConfig(prune=False, memo=False))
            _assert_same_outcome(
                walk.disambiguate_document(xml),
                fast.disambiguate_document(xml),
                f"shape={shape} doc_seed={seed}",
            )
