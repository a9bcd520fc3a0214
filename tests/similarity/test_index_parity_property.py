"""Property-based ``index=`` fast-path parity on random networks.

The curated-lexicon parity tests (``tests/runtime/test_index.py``) pin
bit-identical indexed scores on one fixed network; these properties
assert the same contract on *hypothesis-chosen* synthetic taxonomies —
shape, polysemy, and seed all vary — for every similarity measure in
the five ``repro.similarity`` modules.  ``edge``, ``node``, ``gloss``
and ``combined`` expose the ``index=`` fast path directly;
``vector`` has none (its inputs are plain mappings), which a signature
test pins so a future fast path cannot dodge this battery.

Each measure is exercised against **both** backings of the interned
flat-array :class:`~repro.runtime.pack.PackedIndex`: heap-built from
the network and attached from a ``write_shard`` file — two-way
bit-identity (network walk == packed kernels) on every sampled pair.
The battery passes an explicit IC table, so its combined measure takes
the generic path; :meth:`TestIndexParityProperty.test_slot_path_equals_walk`
builds it with ``ic=None`` (the index's own IC view, which ``XSDF``
uses), which takes the slot path.
"""

from __future__ import annotations

import inspect
import os
import random
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.runtime import PackedIndex, write_shard
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.ic import InformationContent
from repro.similarity.combined import CombinedSimilarity, SimilarityWeights
from repro.similarity.edge import (
    LeacockChodorowSimilarity,
    PathSimilarity,
    WuPalmerSimilarity,
)
from repro.similarity.gloss import ExtendedLeskSimilarity
from repro.similarity.node import (
    JiangConrathSimilarity,
    LinSimilarity,
    ResnikSimilarity,
)
from repro.similarity.vector import VECTOR_MEASURES

#: (network, (heap packed, attached packed), ic) per generator shape —
#: hypothesis revisits shapes across examples, and network construction
#: dominates runtime.
_NETWORK_CACHE: dict[tuple, tuple] = {}

#: Home of the attached side's shard files for the module's lifetime.
_SHARD_DIR = tempfile.TemporaryDirectory(prefix="repro-parity-")

network_shapes = st.tuples(
    st.integers(min_value=0, max_value=999),     # generator seed
    st.sampled_from([30, 80, 140]),              # concepts
    st.sampled_from([2, 4, 7]),                  # branching
    st.sampled_from([1.5, 3.0]),                 # mean polysemy
)


def _network_index_ic(shape):
    if shape not in _NETWORK_CACHE:
        if len(_NETWORK_CACHE) > 48:
            _NETWORK_CACHE.clear()
        seed, n_concepts, branching, polysemy = shape
        network = generate_network(GeneratorConfig(
            n_concepts=n_concepts,
            branching=branching,
            mean_polysemy=polysemy,
            seed=seed,
        ))
        packed = PackedIndex(network)
        shard = os.path.join(
            _SHARD_DIR.name, "-".join(map(str, shape)) + ".rxpd"
        )
        write_shard(packed, shard)
        _NETWORK_CACHE[shape] = (
            network,
            (packed, PackedIndex.from_mmap(shard, verify=True)),
            InformationContent(network),
        )
    return _NETWORK_CACHE[shape]


def _sample_pairs(network, seed, n_random=25):
    """Random concept pairs plus the senses-of-one-word pairs WSD uses."""
    rng = random.Random(seed)
    ids = [concept.id for concept in network]
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(n_random)]
    for word in sorted(network.words())[:10]:
        senses = [s.id for s in network.senses(word)]
        pairs.extend((a, b) for a in senses[:3] for b in senses[:3])
    return pairs


def _measure_sets(network, packs, ic, weights=None):
    """(network walk, [packed fast path per backing]) per measure."""
    makers = [
        lambda index: WuPalmerSimilarity(network, index=index),
        lambda index: PathSimilarity(network, index=index),
        lambda index: LeacockChodorowSimilarity(network, index=index),
        lambda index: LinSimilarity(network, ic=ic, index=index),
        lambda index: ResnikSimilarity(network, ic=ic, index=index),
        lambda index: JiangConrathSimilarity(network, ic=ic, index=index),
        lambda index: ExtendedLeskSimilarity(network, index=index),
        lambda index: CombinedSimilarity(
            network, ic=ic, weights=weights, index=index
        ),
    ]
    return [(make(None), [make(p) for p in packs]) for make in makers]


class TestIndexParityProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shape=network_shapes, pair_seed=st.integers(0, 2**16))
    def test_every_measure_is_bit_identical(self, shape, pair_seed):
        """Packed scores, heap-built or attached, ``==`` unindexed ones."""
        network, packs, ic = _network_index_ic(shape)
        pairs = _sample_pairs(network, pair_seed)
        for slow, fast_paths in _measure_sets(network, packs, ic):
            for a, b in pairs:
                expected = slow(a, b)
                for packed, fast in zip(packs, fast_paths):
                    assert expected == fast(a, b), (
                        f"{type(slow).__name__} ({packed.backing} "
                        f"packed index) diverges on ({a}, {b}) for "
                        f"network shape {shape}"
                    )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=network_shapes,
        pair_seed=st.integers(0, 2**16),
        mix=st.tuples(
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
        ).filter(lambda m: sum(m) > 0),
    )
    def test_combined_parity_under_any_weight_mix(
        self, shape, pair_seed, mix
    ):
        """The Definition 9 combination keeps parity for any weights."""
        network, packs, ic = _network_index_ic(shape)
        weights = SimilarityWeights(*mix)
        slow = CombinedSimilarity(network, ic=ic, weights=weights)
        fast_paths = [
            CombinedSimilarity(network, ic=ic, weights=weights, index=packed)
            for packed in packs
        ]
        for a, b in _sample_pairs(network, pair_seed, n_random=12):
            expected = slow(a, b)
            for fast in fast_paths:
                assert expected == fast(a, b)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=network_shapes,
        pair_seed=st.integers(0, 2**16),
        mix=st.tuples(
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
        ).filter(lambda m: sum(m) > 0),
    )
    @example(shape=(0, 30, 2, 1.5), pair_seed=0, mix=(1.0, 0.0, 0.0))
    @example(shape=(0, 30, 2, 1.5), pair_seed=0, mix=(0.0, 1.0, 0.0))
    @example(shape=(0, 30, 2, 1.5), pair_seed=0, mix=(0.0, 0.0, 1.0))
    def test_slot_path_equals_walk(self, shape, pair_seed, mix):
        """With ``ic=None`` both entry points score over slots and
        ``==`` the network walk, in either argument order and either
        request order (bound then exact, exact then bound), each on a
        fresh instance; the bound dominates the exact score."""
        network, packs, _ = _network_index_ic(shape)
        weights = SimilarityWeights(*mix)
        pairs = _sample_pairs(network, pair_seed, n_random=12)
        for swap in (False, True):
            for bound_first in (True, False):
                walk = CombinedSimilarity(network, weights=weights)
                for packed in packs:
                    fast = CombinedSimilarity(
                        network, weights=weights, index=packed
                    )
                    assert fast._packed is packed  # the slot path
                    for a, b in pairs:
                        x, y = (b, a) if swap else (a, b)
                        if bound_first:
                            bound = fast.upper_bound(x, y)
                            exact = fast(x, y)
                        else:
                            exact = fast(x, y)
                            bound = fast.upper_bound(x, y)
                        assert exact == walk(x, y), (x, y, packed.backing)
                        assert bound == walk.upper_bound(x, y), (
                            x, y, packed.backing
                        )
                        assert bound >= exact

    def test_vector_module_has_no_index_fast_path(self):
        """``repro.similarity.vector`` takes no ``index=`` — if one is
        ever added, this pin forces it into the parity battery above."""
        for name, measure in VECTOR_MEASURES.items():
            parameters = inspect.signature(measure).parameters
            assert "index" not in parameters, (
                f"vector measure {name!r} grew an index= parameter; "
                "add it to the index-parity property tests"
            )
