"""Unit and property-based tests for sparse vector similarity."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.similarity.vector import (
    VECTOR_MEASURES,
    cosine_similarity,
    jaccard_similarity,
    pearson_similarity,
)

vectors = st.dictionaries(
    st.sampled_from("abcdefgh"),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    max_size=6,
)

#: Scores 2,000 seeded random vector pairs, one ``float.hex()`` a line.
_JACCARD_SCRIPT = """
import random
from repro.similarity.vector import jaccard_similarity
rng = random.Random(0)
labels = [f"label-{i}" for i in range(30)]
for _ in range(2000):
    u = {rng.choice(labels): rng.random() for _ in range(10)}
    v = {rng.choice(labels): rng.random() for _ in range(10)}
    print(jaccard_similarity(u, v).hex())
"""


class TestCosine:
    def test_identical_vectors(self):
        v = {"a": 1.0, "b": 2.0}
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_scale_invariance(self):
        u = {"a": 1.0, "b": 3.0}
        v = {"a": 10.0, "b": 30.0}
        assert cosine_similarity(u, v) == pytest.approx(1.0)

    def test_empty_vector(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0

    def test_known_value(self):
        # cos between (1,1) and (1,0) = 1/sqrt(2).
        u = {"a": 1.0, "b": 1.0}
        v = {"a": 1.0}
        assert cosine_similarity(u, v) == pytest.approx(0.7071, abs=1e-3)


class TestJaccard:
    def test_identical(self):
        v = {"a": 2.0, "b": 1.0}
        assert jaccard_similarity(v, v) == pytest.approx(1.0)

    def test_disjoint(self):
        assert jaccard_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_known_value(self):
        u = {"a": 2.0, "b": 2.0}
        v = {"a": 1.0, "b": 3.0}
        # min sum = 1+2 = 3; max sum = 2+3 = 5.
        assert jaccard_similarity(u, v) == pytest.approx(0.6)

    def test_result_bits_do_not_depend_on_string_hashing(self):
        """Two interpreters with different ``PYTHONHASHSEED``s agree.

        Hash randomization is frozen at interpreter start, so each seed
        gets its own subprocess; ``float.hex()`` compares every bit.
        """
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(src), env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _JACCARD_SCRIPT],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == 2000
        assert outputs[0] == outputs[1]


class TestPearson:
    def test_perfect_positive(self):
        u = {"a": 1.0, "b": 2.0, "c": 3.0}
        v = {"a": 2.0, "b": 4.0, "c": 6.0}
        assert pearson_similarity(u, v) == pytest.approx(1.0)

    def test_perfect_negative_maps_to_zero(self):
        u = {"a": 1.0, "b": 3.0}
        v = {"a": 3.0, "b": 1.0}
        assert pearson_similarity(u, v) == pytest.approx(0.0)

    def test_degenerate_single_dimension(self):
        assert pearson_similarity({"a": 1.0}, {"a": 2.0}) == 0.0


class TestRegistry:
    def test_all_measures_registered(self):
        assert set(VECTOR_MEASURES) == {"cosine", "jaccard", "pearson"}


@given(vectors, vectors)
def test_measures_bounded_and_symmetric(u, v):
    for measure in VECTOR_MEASURES.values():
        value = measure(u, v)
        assert 0.0 <= value <= 1.0
        assert measure(v, u) == pytest.approx(value)


@given(
    st.dictionaries(
        st.sampled_from("abcdefgh"),
        st.floats(min_value=0.01, max_value=10.0),
        min_size=1,
        max_size=6,
    )
)
def test_self_similarity_maximal(v):
    # Weights bounded away from zero: denormal weights underflow the
    # norm product, a float artifact rather than a measure property.
    assert cosine_similarity(v, v) == pytest.approx(1.0)
    assert jaccard_similarity(v, v) == pytest.approx(1.0)
