"""Property-based parity of the packed index's one consumer.

The curated-lexicon parity tests (``tests/runtime/test_index.py``) pin
bit-identical indexed scores on one fixed network; these properties
assert the same contract on *hypothesis-chosen* synthetic taxonomies —
shape, polysemy, and seed all vary.  The packed index has exactly one
consumer, the slot path of
:class:`~repro.similarity.combined.CombinedSimilarity`; every other
measure in ``repro.similarity`` walks the network and takes no
``index``, which a signature test pins so a future fast path cannot
dodge this battery.

The slot path is exercised against **both** backings of the interned
flat-array :class:`~repro.runtime.pack.PackedIndex`: heap-built from
the network and attached from a ``write_shard`` file — bit-identity
(network walk == slot path) on every sampled pair, under any weight
mix.
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
from repro.similarity import combined, edge, gloss, node
from repro.similarity.combined import CombinedSimilarity, SimilarityWeights
from repro.similarity.vector import VECTOR_MEASURES

#: (network, (heap packed, attached packed)) per generator shape —
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


def _network_and_indexes(shape):
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


class TestIndexParityProperty:
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
    @example(shape=(0, 30, 2, 1.5), pair_seed=0, mix=(1.0, 1.0, 1.0))
    def test_slot_path_equals_walk(self, shape, pair_seed, mix):
        """With an index both entry points score over slots and ``==``
        the network walk under any weight mix, in either argument order
        and either request order (bound then exact, exact then bound),
        each on a fresh instance; the bound dominates the exact
        score."""
        network, packs = _network_and_indexes(shape)
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

    def test_only_the_combined_measure_takes_an_index(self):
        """The slot path is the packed index's one consumer: of every
        ``*Similarity`` class in ``repro.similarity`` and every vector
        measure, only ``CombinedSimilarity`` takes ``index`` — a new
        fast path elsewhere would dodge the parity battery above."""
        measures = {
            name: cls
            for module in (combined, edge, gloss, node)
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and name.endswith("Similarity")
            and cls.__module__ == module.__name__
        }
        assert len(measures) == 8, sorted(measures)
        measures.update(VECTOR_MEASURES)
        taking = sorted(
            name for name, measure in measures.items()
            if "index" in inspect.signature(measure).parameters
        )
        assert taking == ["CombinedSimilarity"]
