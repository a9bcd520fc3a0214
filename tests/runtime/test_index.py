"""Fast-index correctness: indexed paths must be bit-identical.

:class:`~repro.runtime.pack.PackedIndex` is a pure accelerator — every
query it serves and every similarity score computed through it must
*equal* (``==``, not approximately) the value the uncached network walk
produces, on both the curated lexicon and a synthetic generated
network.  (The packed codec, shard round-trips and worker shipping are
pinned in ``test_pack.py``.)
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import XSDFConfig
from repro.core.framework import XSDF
from repro.runtime import LRUCache, PackedIndex
from repro.semnet.network import UnknownConceptError
from repro.similarity.combined import (
    CombinedSimilarity,
    SimilarityWeights,
    _slot_pair_key,
)
from repro.similarity.gloss import ExtendedLeskSimilarity

from .test_pack import lcs_and_distance


def _sample_pairs(network, n_pairs=250, seed=0):
    """Deterministic mix of random pairs and same-word sense pairs."""
    rng = random.Random(seed)
    ids = [concept.id for concept in network]
    pairs = [
        (rng.choice(ids), rng.choice(ids)) for _ in range(n_pairs)
    ]
    # Senses of one word are the pairs disambiguation actually compares.
    for word in sorted(network.words())[:40]:
        senses = [s.id for s in network.senses(word)]
        pairs.extend(
            (a, b) for a in senses[:4] for b in senses[:4]
        )
    return pairs


def _assert_identical_measures(network, index, pairs):
    """The indexed ``CombinedSimilarity`` (its slot path) ``==`` the
    walk, both entry points."""
    walk = CombinedSimilarity(network)
    fast = CombinedSimilarity(network, index=index)
    for a, b in pairs:
        assert walk(a, b) == fast(a, b), f"diverges on ({a}, {b})"
        assert walk.upper_bound(a, b) == fast.upper_bound(a, b), (
            f"bound diverges on ({a}, {b})"
        )


@pytest.fixture(scope="module")
def lexicon_index(lexicon):
    """A PackedIndex over the curated lexicon (shared, read-only)."""
    return PackedIndex(lexicon)


class TestIndexedSimilarityIdentity:
    def test_curated_lexicon(self, lexicon, lexicon_index):
        _assert_identical_measures(
            lexicon, lexicon_index, _sample_pairs(lexicon)
        )

    def test_synthetic_network(self, synthetic_network):
        index = PackedIndex(synthetic_network)
        _assert_identical_measures(
            synthetic_network, index, _sample_pairs(synthetic_network, seed=1)
        )

    def test_cached_combined_identity(self, lexicon, lexicon_index):
        """LRU-backed indexed CombinedSimilarity equals the plain walk."""
        plain = CombinedSimilarity(lexicon)
        cached = CombinedSimilarity(
            lexicon, index=lexicon_index, cache=LRUCache(maxsize=512)
        )
        for a, b in _sample_pairs(lexicon, n_pairs=120, seed=2):
            assert plain(a, b) == cached(a, b)
            assert plain(a, b) == cached(a, b)  # repeat: served from LRU

    def test_weighted_mix_identity(self, lexicon, lexicon_index):
        weights = SimilarityWeights(0.6, 0.1, 0.3)
        plain = CombinedSimilarity(lexicon, weights=weights)
        fast = CombinedSimilarity(
            lexicon, weights=weights, index=lexicon_index
        )
        for a, b in _sample_pairs(lexicon, n_pairs=80, seed=3):
            assert plain(a, b) == fast(a, b)


class TestIndexQueries:
    def test_taxonomy_tables_match_network(self, lexicon, lexicon_index):
        for concept in list(lexicon)[:100]:
            cid = concept.id
            assert lexicon_index.depth(cid) == lexicon.depth(cid)
            assert (
                lexicon_index.hypernym_closure(cid)
                == lexicon.hypernym_closure(cid)
            )
        assert (
            lexicon_index.max_taxonomy_depth == lexicon.max_taxonomy_depth
        )

    def test_lcs_and_distance_match_network(self, lexicon, lexicon_index):
        for a, b in _sample_pairs(lexicon, n_pairs=150, seed=4):
            lcs, distance = lcs_and_distance(lexicon_index, a, b)
            assert lcs == lexicon.lowest_common_subsumer(a, b)
            assert distance == lexicon.taxonomic_distance(a, b)

    def test_gloss_bags_match_lazy_tokens(self, lexicon, lexicon_index):
        lesk = ExtendedLeskSimilarity(lexicon)
        for concept in list(lexicon)[:50]:
            assert (
                lexicon_index.gloss_bag(concept.id)
                == lesk._extended_gloss(concept.id)
            )

    def test_unknown_concept_raises(self, lexicon_index):
        with pytest.raises(UnknownConceptError):
            lexicon_index.depth("no.such.concept")
        with pytest.raises(UnknownConceptError):
            lexicon_index.hypernym_closure("no.such.concept")
        with pytest.raises(UnknownConceptError):
            lexicon_index.gloss_bag("no.such.concept")

    def test_stats_shape(self, lexicon, lexicon_index):
        stats = lexicon_index.stats()
        assert stats["concepts"] == len(lexicon)
        assert stats["ancestor_entries"] > stats["concepts"]
        assert stats["build_seconds"] >= 0
        # Counts are ints; build_seconds is a float and backing a
        # string.
        assert stats["backing"] == "heap"
        for key, value in stats.items():
            if key not in ("build_seconds", "backing"):
                assert isinstance(value, int), key


class TestSlotPath:
    """``CombinedSimilarity`` with an index (as ``XSDF`` builds it)
    scores over slots: typed errors and one table entry per pair it
    scores."""

    @pytest.mark.parametrize("unknown_first", [True, False])
    def test_unknown_concept_raises_from_call(
        self, lexicon, lexicon_index, unknown_first
    ):
        sim = CombinedSimilarity(lexicon, index=lexicon_index)
        pair = ("no.such.concept", next(iter(lexicon)).id)
        with pytest.raises(UnknownConceptError):
            sim(*(pair if unknown_first else pair[::-1]))

    @pytest.mark.parametrize("unknown_first", [True, False])
    def test_unknown_concept_raises_from_upper_bound(
        self, lexicon, lexicon_index, unknown_first
    ):
        sim = CombinedSimilarity(lexicon, index=lexicon_index)
        pair = ("no.such.concept", next(iter(lexicon)).id)
        with pytest.raises(UnknownConceptError):
            sim.upper_bound(*(pair if unknown_first else pair[::-1]))

    def test_one_table_entry_per_scored_pair(
        self, lexicon, corpus, monkeypatch
    ):
        """Scoring reads the LCS through the slot kernel, and the
        similarity's slot table holds exactly the unordered pairs the
        scorer asked for."""
        scored: set[frozenset[str]] = set()
        for name in ("__call__", "upper_bound"):
            original = getattr(CombinedSimilarity, name)

            def record(self, a, b, _original=original):
                scored.add(frozenset((a, b)))
                return _original(self, a, b)

            monkeypatch.setattr(CombinedSimilarity, name, record)
        packed = PackedIndex(lexicon)
        xsdf = XSDF(lexicon, XSDFConfig(), index=packed)
        for doc in corpus:
            xsdf.disambiguate_document(doc.xml)
        distinct = {pair for pair in scored if len(pair) == 2}
        table = xsdf._similarity._slot_table
        assert len(table) == len(distinct) > 0
        assert set(table) == {
            _slot_pair_key(*(packed.slot(c) for c in pair))
            for pair in distinct
        }
