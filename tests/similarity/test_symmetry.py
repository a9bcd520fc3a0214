"""``Sim`` is a function of the unordered concept pair (Definition 9).

The greedy extended-Lesk overlap depends on the order of its arguments,
so every path takes it with the smaller concept id first.  The pair
caches are keyed by the unordered pair, so they then hold the one value
either order computes.  Each check scores the two orders of a pair on
two fresh instances, so no cache can hand one order's value to the
other.
"""

from __future__ import annotations

import pytest

from repro.runtime import PackedIndex
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.similarity.combined import CombinedSimilarity
from repro.similarity.gloss import (
    ExtendedLeskSimilarity,
    _ngram_overlap_score,
)

#: A lexicon pair whose greedy overlap differs by argument order
#: (0.1667 one way, 0.2041 the other).
HEAD_PAIR = ("head.n.05", "head.n.16")


@pytest.fixture(scope="module")
def generated():
    """A 40-concept network whose Lesk pairs include order-dependent
    ones, with its packed index."""
    network = generate_network(GeneratorConfig(
        n_concepts=40, branching=4, mean_polysemy=1.5, seed=0
    ))
    return network, PackedIndex(network)


def _both_orders(make, ids):
    """``(pair, forward value, backward value)`` for every unordered
    pair of ``ids``, each order scored once on its own instance."""
    forward, backward = make(), make()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            yield (a, b), forward(a, b), backward(b, a)


def _measures(network, index):
    """Makers of fresh Lesk, walk and slot-path similarities."""
    return {
        "lesk": lambda: ExtendedLeskSimilarity(network),
        "walk": lambda: CombinedSimilarity(network),
        "slots": lambda: CombinedSimilarity(network, index=index),
    }


class TestLexiconPair:
    def test_order_dependent_overlap_is_symmetric(self, lexicon):
        index = PackedIndex(lexicon)
        a, b = HEAD_PAIR
        for name, make in _measures(lexicon, index).items():
            assert make()(a, b) == make()(b, a), name
        assert CombinedSimilarity(lexicon)(a, b) == CombinedSimilarity(
            lexicon, index=index
        )(b, a)

    def test_the_overlap_is_taken_smaller_id_first(self, lexicon):
        lesk = ExtendedLeskSimilarity(lexicon)
        a, b = HEAD_PAIR
        tokens_a = lesk._extended_gloss(a)
        tokens_b = lesk._extended_gloss(b)
        forward = _ngram_overlap_score(tokens_a, tokens_b)
        assert forward != _ngram_overlap_score(tokens_b, tokens_a)
        shorter = min(len(tokens_a), len(tokens_b))
        assert lesk(b, a) == min(1.0, forward ** 0.5 / shorter)


class TestGeneratedNetwork:
    def test_every_ordered_pair_is_symmetric(self, generated):
        network, index = generated
        ids = [concept.id for concept in network]
        for name, make in _measures(network, index).items():
            for pair, forward, backward in _both_orders(make, ids):
                assert forward == backward, (name, pair)

    def test_slot_path_equals_walk_in_both_orders(self, generated):
        network, index = generated
        ids = [concept.id for concept in network]
        walk = {
            pair: forward for pair, forward, _ in _both_orders(
                lambda: CombinedSimilarity(network), ids
            )
        }
        for pair, forward, backward in _both_orders(
            lambda: CombinedSimilarity(network, index=index), ids
        ):
            assert forward == backward == walk[pair], pair
