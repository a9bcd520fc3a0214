"""PackedIndex correctness: packed kernels, the RXPD codec, shipping.

Four contracts are pinned here:

* **query parity** — every query the packed index serves (closures,
  depths, the pair kernel's LCS and distance, gloss bags, IC, the Lesk
  kernel) must ``==`` the network-walk value, on the curated lexicon
  and on random synthetic networks (the indexed ``CombinedSimilarity``'s
  identity with the walk lives in ``test_index.py``), and the Lesk
  kernel's closed form must ``==`` the literal greedy DP on any two
  token sequences;
* **frozen build** — the curated lexicon packs to one pinned ``RXPD``
  payload, so shards already on disk stay attachable;
* **codec round-trip** — ``write_shard`` → ``from_mmap`` reproduces
  every table exactly and re-encodes to the identical payload, and
  truncated/corrupted/foreign payloads raise the typed
  :class:`PackedIndexError` family instead of mis-attaching;
* **worker shipping** — a ``PackedIndex`` does not pickle: pool
  workers fork with the parent's index instead.
"""

from __future__ import annotations

import hashlib
import pickle
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.runtime import (
    PackedIndex,
    PackedIndexCRCError,
    PackedIndexError,
    PackedIndexTruncatedError,
    pack,
    write_shard,
)
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.ic import InformationContent
from repro.semnet.network import UnknownConceptError
from repro.similarity.gloss import (
    ExtendedLeskSimilarity,
    _ngram_overlap_score,
    extended_gloss_tokens,
)

#: ``PackedIndex(default_lexicon()).to_disk_payload()``: size and SHA-256.
LEXICON_PAYLOAD_BYTES = 74472
LEXICON_PAYLOAD_SHA256 = (
    "aaf8db957946427a21b2ecb46cf228fc8a2fc408ea98045038c83cce1201b958"
)


def _sample_pairs(network, n_pairs=150, seed=0):
    """Deterministic mix of random pairs and same-word sense pairs."""
    rng = random.Random(seed)
    ids = [concept.id for concept in network]
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(n_pairs)]
    for word in sorted(network.words())[:20]:
        senses = [s.id for s in network.senses(word)]
        pairs.extend((a, b) for a in senses[:3] for b in senses[:3])
    return pairs


def lcs_and_distance(packed, a, b):
    """The packed LCS id and IS-A distance of ``a`` and ``b`` (or Nones)."""
    terms = packed.pair_terms_of_slots(packed.slot(a), packed.slot(b))
    if terms is None:
        return None, None
    return packed.concept_id(terms[0]), terms[2] + terms[3]


def _assert_query_parity(network, packed, pairs):
    """Every packed query must equal the network-walk answer exactly."""
    ic = InformationContent(network)
    for a, b in pairs:
        assert packed.hypernym_closure(a) == network.hypernym_closure(a)
        assert packed.depth(a) == network.depth(a)
        lcs, distance = lcs_and_distance(packed, a, b)
        assert lcs == network.lowest_common_subsumer(a, b), (a, b)
        assert distance == network.taxonomic_distance(a, b), (a, b)
        assert packed.gloss_bag(a) == extended_gloss_tokens(network, a)
        assert packed.ic_of_slot(packed.slot(a)) == ic.ic(a)
    assert packed.max_taxonomy_depth == network.max_taxonomy_depth


def _lesk(packed, a, b):
    """The packed gloss kernel's score of two concept ids."""
    return packed.lesk_similarity_of_slots(packed.slot(a), packed.slot(b))


def _round_trip(packed, tmp_path, name="index.rxpd"):
    """``packed`` written to an RXPD shard and attached back."""
    path = tmp_path / name
    write_shard(packed, path)
    return PackedIndex.from_mmap(path, verify=True)


def _attach_payload(payload, tmp_path, name="damaged.rxpd"):
    """Attach raw (possibly damaged) ``RXPD`` bytes, CRC-verified."""
    path = tmp_path / name
    path.write_bytes(payload)
    return PackedIndex.from_mmap(path, verify=True)


@pytest.fixture(scope="module")
def packed_lexicon(lexicon):
    """A PackedIndex over the curated lexicon (shared, read-only)."""
    return PackedIndex(lexicon)


class TestQueryParity:
    def test_curated_lexicon_queries_match_network_walk(
        self, lexicon, packed_lexicon
    ):
        _assert_query_parity(lexicon, packed_lexicon, _sample_pairs(lexicon))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_synthetic_network_queries_match_network_walk(self, seed):
        network = generate_network(
            GeneratorConfig(n_concepts=120, mean_polysemy=2.0, seed=seed)
        )
        _assert_query_parity(
            network, PackedIndex(network), _sample_pairs(network, seed=seed)
        )

    def test_lesk_kernel_matches_unpacked_measure(
        self, lexicon, packed_lexicon
    ):
        """The packed kernel == the string DP, score for score.

        Also on a ``gloss_style="local"`` network, the gloss shape of
        the 100k benchmark network, where the closed form answers most
        pairs.
        """
        local = generate_network(GeneratorConfig(
            n_concepts=200, mean_polysemy=2.0, gloss_style="local", seed=4
        ))
        for network, packed in (
            (lexicon, packed_lexicon), (local, PackedIndex(local))
        ):
            unpacked = ExtendedLeskSimilarity(network)
            for a, b in _sample_pairs(network, n_pairs=60, seed=4):
                assert _lesk(packed, a, b) == unpacked(a, b), (a, b)

    def test_lexicon_payload_digest_is_pinned(self, packed_lexicon):
        """The build is frozen: shards already on disk stay attachable."""
        payload = packed_lexicon.to_disk_payload()
        assert len(payload) == LEXICON_PAYLOAD_BYTES
        assert hashlib.sha256(payload).hexdigest() == LEXICON_PAYLOAD_SHA256

    def test_unknown_concept_raises(self, packed_lexicon):
        with pytest.raises(UnknownConceptError):
            packed_lexicon.depth("no.such.concept")
        with pytest.raises(UnknownConceptError):
            packed_lexicon.slot("no.such.concept")


def _packed_overlap(tokens_a: list[int], tokens_b: list[int]) -> float:
    """The packed kernel's raw overlap of two token-id sequences."""
    return pack._gloss_overlap(
        tokens_a, tokens_b,
        pack._token_positions(tokens_a), pack._token_positions(tokens_b),
        frozenset(tokens_a) & frozenset(tokens_b),
    )


@st.composite
def _token_sequence_pairs(draw):
    """Two sequences over one alphabet of 1-6 token ids, lengths 0-16."""
    alphabet = st.integers(0, draw(st.integers(1, 6)) - 1)
    return (
        draw(st.lists(alphabet, max_size=16)),
        draw(st.lists(alphabet, max_size=16)),
    )


class TestLeskClosedForm:
    @given(_token_sequence_pairs())
    @example(([0, 5, 1], [0, 1]))  # shared tokens isolated only in a
    @example(([0, 1], [0, 5, 1]))  # isolated only in b
    # Adjacent in both: the DP, which scores this pair 5.0 one way and
    # 3.0 the other, so the fallback must keep the argument order.
    @example(([1, 0, 2, 2], [2, 1, 2]))
    @example(([0, 3, 0, 3, 0], [0, 4, 0]))  # counts 3 and 2 of one token
    @example(([0, 1], [2, 3]))  # disjoint bags
    @example(([], [0, 1]))  # an empty bag
    def test_closed_form_equals_literal_dp(self, pair):
        """Either argument order, == the network walk's string DP."""
        for tokens_a, tokens_b in (pair, pair[::-1]):
            assert _packed_overlap(tokens_a, tokens_b) == _ngram_overlap_score(
                [str(t) for t in tokens_a], [str(t) for t in tokens_b]
            )

    @pytest.mark.parametrize("tokens_a, tokens_b, raw", [
        ([0, 5, 1], [0, 1], 2.0),
        ([0, 1], [0, 5, 1], 2.0),
        ([0, 3, 0, 3, 0], [0, 0], 2.0),
        ([0, 1], [2, 3], 0.0),
    ])
    def test_isolated_shared_tokens_skip_the_dp(
        self, monkeypatch, tokens_a, tokens_b, raw
    ):
        def no_dp(*args):
            raise AssertionError("the closed form should answer this pair")

        monkeypatch.setattr(pack, "_interned_overlap_score", no_dp)
        assert _packed_overlap(tokens_a, tokens_b) == raw

    def test_adjacent_shared_tokens_in_both_bags_run_the_dp(
        self, monkeypatch
    ):
        calls = []
        dp = pack._interned_overlap_score

        def counting_dp(tokens_a, tokens_b):
            calls.append((tokens_a, tokens_b))
            return dp(tokens_a, tokens_b)

        monkeypatch.setattr(pack, "_interned_overlap_score", counting_dp)
        # The run (0, 1) scores 2**2, where m would say 2.
        assert _packed_overlap([0, 1, 2], [3, 0, 1]) == 4.0
        assert calls == [([0, 1, 2], [3, 0, 1])]


class TestCodec:
    def test_round_trip_on_curated_lexicon(
        self, lexicon, packed_lexicon, tmp_path
    ):
        clone = _round_trip(packed_lexicon, tmp_path)
        assert clone.backing == "mmap"
        _assert_query_parity(lexicon, clone, _sample_pairs(lexicon, seed=1))
        # The attached tables re-encode to the identical payload.
        assert clone.to_disk_payload() == packed_lexicon.to_disk_payload()

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_round_trip_on_random_synthetic_networks(self, seed, tmp_path):
        network = generate_network(
            GeneratorConfig(
                n_concepts=60 + 30 * seed, mean_polysemy=1.8, seed=seed
            )
        )
        packed = PackedIndex(network)
        clone = _round_trip(packed, tmp_path)
        assert clone.to_disk_payload() == packed.to_disk_payload()
        for a, b in _sample_pairs(network, n_pairs=40, seed=seed):
            ia, ib = packed.slot(a), packed.slot(b)
            assert (clone.slot(a), clone.slot(b)) == (ia, ib)
            assert clone.pair_terms_of_slots(ia, ib) == \
                packed.pair_terms_of_slots(ia, ib)
            assert _lesk(clone, a, b) == _lesk(packed, a, b)

    def test_truncated_buffers_raise(self, packed_lexicon, tmp_path):
        blob = packed_lexicon.to_disk_payload()
        for cut in (0, 4, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(PackedIndexError):
                _attach_payload(blob[:cut], tmp_path, f"cut-{cut}.rxpd")

    def test_truncation_raises_the_typed_subclass(
        self, packed_lexicon, tmp_path
    ):
        """Truncation is distinguishable from corruption (typed errors)."""
        blob = packed_lexicon.to_disk_payload()
        for cut in (0, 10, len(blob) - 1):
            with pytest.raises(PackedIndexTruncatedError):
                _attach_payload(blob[:cut], tmp_path, f"cut-{cut}.rxpd")
        # Every cut of a small shard, header bytes included.
        tiny = PackedIndex(generate_network(
            GeneratorConfig(n_concepts=6, mean_polysemy=1.0, seed=5)
        )).to_disk_payload()
        for cut in range(len(tiny)):
            with pytest.raises(PackedIndexTruncatedError):
                _attach_payload(tiny[:cut], tmp_path, f"tiny-{cut}.rxpd")
        # The subclass is still the umbrella PackedIndexError, so
        # existing except clauses keep working.
        assert issubclass(PackedIndexTruncatedError, PackedIndexError)

    def test_corrupted_body_raises(self, packed_lexicon, tmp_path):
        blob = bytearray(packed_lexicon.to_disk_payload())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(PackedIndexError):
            _attach_payload(bytes(blob), tmp_path)

    def test_corruption_raises_the_crc_subclass(
        self, packed_lexicon, tmp_path
    ):
        blob = bytearray(packed_lexicon.to_disk_payload())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(PackedIndexCRCError):
            _attach_payload(bytes(blob), tmp_path)
        assert issubclass(PackedIndexCRCError, PackedIndexError)

    def test_foreign_magic_and_version_raise(self, packed_lexicon, tmp_path):
        blob = packed_lexicon.to_disk_payload()
        with pytest.raises(PackedIndexError):
            _attach_payload(b"XXXX" + blob[4:], tmp_path, "magic.rxpd")
        with pytest.raises(PackedIndexError):
            # Bump the version halfword past anything supported.
            _attach_payload(
                blob[:4] + b"\xff\xff" + blob[6:], tmp_path, "version.rxpd"
            )


class TestWorkerShipping:
    def test_pickling_raises_type_error(self, packed_lexicon, tmp_path):
        """Heap-built or attached, an index never pickles: workers
        fork with it instead of receiving a copy of the tables."""
        for index in (packed_lexicon, _round_trip(packed_lexicon, tmp_path)):
            with pytest.raises(TypeError, match="from_mmap"):
                pickle.dumps(index)

    def test_stats_shape(self, packed_lexicon, lexicon):
        stats = packed_lexicon.stats()
        assert stats["concepts"] == len(lexicon)
        assert stats["backing"] == "heap"
        assert stats["ancestor_entries"] >= stats["concepts"]
        assert stats["distinct_tokens"] <= stats["gloss_tokens"]
        assert stats["packed_bytes"] == LEXICON_PAYLOAD_BYTES
        assert stats["build_seconds"] >= 0
        # The kernels keep no per-pair memo: the slot path's table is
        # the one per-pair table.
        assert not any(key.startswith("pair_memo") for key in stats)
