"""User-tunable parameters of the XSDF pipeline (paper Figure 3).

The paper stresses that — unlike static predecessors — every stage of
XSDF is user-tunable: the ambiguity-degree weights and threshold
(Section 3.3), the sphere context radius (Section 3.4), the
disambiguation strategy and its weights (Section 3.5), and the semantic
similarity measure mix (Definition 9).  :class:`XSDFConfig` gathers all
of them with the paper's defaults.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from ..similarity.combined import SimilarityWeights


class DisambiguationApproach(enum.Enum):
    """Which disambiguation process to run (paper Section 3.5)."""

    CONCEPT_BASED = "concept"
    CONTEXT_BASED = "context"
    COMBINED = "combined"


@dataclass(frozen=True)
class AmbiguityWeights:
    """Weights of the polysemy / depth / density ambiguity factors.

    Each lies in [0, 1] and they are *independent* (they do not need to
    sum to one — Definition 3).  ``w_polysemy = 0`` makes every node's
    ambiguity degree 0, effectively disabling target selection.
    """

    polysemy: float = 1.0
    depth: float = 1.0
    density: float = 1.0

    def __post_init__(self) -> None:
        for name in ("polysemy", "depth", "density"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"w_{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class XSDFConfig:
    """Complete parameterization of one XSDF run.

    Attributes
    ----------
    ambiguity_weights:
        The (w_polysemy, w_depth, w_density) mix of Definition 3.
    ambiguity_threshold:
        ``Thresh_Amb`` — nodes with ``Amb_Deg >= threshold`` become
        disambiguation targets; 0 selects every node with a known label.
    sphere_radius:
        The context size ``d`` of Definitions 4-5.  The paper finds
        ``d = 1`` optimal for ambiguous/richly-structured data and
        ``d = 3`` for the rest.
    approach:
        Concept-based, context-based, or the weighted combination.
    concept_weight / context_weight:
        ``w_Concept`` and ``w_Context`` of Eq. 13 (normalized to sum
        to 1 when the combined approach runs).
    similarity_weights:
        The edge/node/gloss mix of Definition 9 (uniform by default, as
        in the paper's experiments).
    vector_measure:
        Vector comparison for the context-based score: ``cosine``
        (paper default), ``jaccard``, or ``pearson``.
    include_values:
        Structure-and-content (True, paper default) vs structure-only.
    distance_policy:
        Extension beyond the paper (default None = Definition 4's edge
        count): a :class:`repro.core.distances.DistancePolicy` (or its
        name, ``"direction"`` / ``"density"``) pricing tree edges, so
        spheres become cost bands.
    strip_target_dimension:
        Extension beyond the paper (default off = paper-faithful): drop
        the target's own label dimension from both context vectors
        before comparing them, removing a self-word bias that favors
        senses with few semantic neighbors.  Dramatically improves the
        context-based process — see the target-dimension ablation.
    prune:
        Exact candidate pruning (default on): run candidates
        best-upper-bound-first and stop once the running best provably
        beats every remaining bound.  The chosen sense and its scores
        are bit-identical to the exhaustive loop; only provably-losing
        candidates are skipped (their entries are then absent from the
        per-candidate ``scores`` breakdown).
    memo:
        Cross-document sphere memoization (default on): each
        :class:`~repro.core.framework.XSDF` keeps a private memo keyed
        by the target and its ordered sphere (the configuration and the
        network are fixed for the instance's life), and a recurring
        sphere replays its memoized outcome instead of recomputing it.
        Results are bit-identical; see :mod:`repro.runtime.memo`.
    """

    ambiguity_weights: AmbiguityWeights = field(default_factory=AmbiguityWeights)
    ambiguity_threshold: float = 0.0
    sphere_radius: int = 2
    approach: DisambiguationApproach = DisambiguationApproach.COMBINED
    concept_weight: float = 0.5
    context_weight: float = 0.5
    similarity_weights: SimilarityWeights = field(default_factory=SimilarityWeights)
    vector_measure: str = "cosine"
    include_values: bool = True
    strip_target_dimension: bool = False
    distance_policy: object | None = None
    prune: bool = True
    memo: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.ambiguity_threshold <= 1.0:
            raise ValueError("ambiguity_threshold must be in [0, 1]")
        if self.sphere_radius < 1:
            raise ValueError("sphere_radius must be >= 1")
        if self.concept_weight < 0 or self.context_weight < 0:
            raise ValueError("approach weights must be non-negative")
        if self.approach is DisambiguationApproach.COMBINED:
            if self.concept_weight + self.context_weight <= 0:
                raise ValueError("combined approach needs a positive weight")
        if self.vector_measure not in ("cosine", "jaccard", "pearson"):
            raise ValueError(f"unknown vector measure {self.vector_measure!r}")

    def fingerprint(self) -> str:
        """Digest of every field that can change an output byte.

        Stamped into a batch journal's meta frame (``--resume`` refuses
        a journal written under another digest) and reported by the
        server's ``/healthz``.  ``prune`` is folded in because pruning
        omits provably-losing candidates from each node's ``scores``;
        ``memo`` is left out because memoized replays are byte-identical
        to fresh scoring.
        """
        policy = self.distance_policy
        if policy is not None and not isinstance(policy, str):
            # Policy objects have no canonical repr; freeze their type
            # and constructor state.
            policy = (
                type(policy).__qualname__,
                tuple(sorted(vars(policy).items())) if vars(policy) else (),
            )
        weights = self.similarity_weights
        ambiguity = self.ambiguity_weights
        canonical = (
            self.sphere_radius,
            self.approach.value,
            self.concept_weight,
            self.context_weight,
            (weights.edge, weights.node, weights.gloss),
            self.vector_measure,
            self.include_values,
            self.strip_target_dimension,
            (ambiguity.polysemy, ambiguity.depth, ambiguity.density),
            self.ambiguity_threshold,
            policy,
            self.prune,
        )
        return hashlib.blake2b(
            repr(canonical).encode("utf-8"), digest_size=16
        ).hexdigest()

    @property
    def normalized_approach_weights(self) -> tuple[float, float]:
        """(w_Concept, w_Context) normalized to sum to 1 (Eq. 13)."""
        total = self.concept_weight + self.context_weight
        if total <= 0:
            return (0.5, 0.5)
        return (self.concept_weight / total, self.context_weight / total)
