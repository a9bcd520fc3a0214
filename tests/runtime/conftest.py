"""Shared fixtures for the runtime subsystem tests."""

from __future__ import annotations

import pytest

from repro.datasets import generate_test_corpus
from repro.semnet.generator import GeneratorConfig, generate_network


@pytest.fixture(scope="session")
def corpus():
    """The full generated test collection (all ten datasets)."""
    return generate_test_corpus()


@pytest.fixture(scope="session")
def synthetic_network():
    """A seed-deterministic synthetic semantic network."""
    return generate_network(
        GeneratorConfig(n_concepts=200, mean_polysemy=2.5, seed=42)
    )
