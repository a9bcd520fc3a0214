"""The paper's scoring definitions, transcribed literally (test oracle).

The production scorers fold over a per-document plan
(:class:`repro.core.framework.DocumentPlan`), share context inventories
and norms between candidates, memoize and prune.  The functions here
recompute one candidate's score against one sphere straight from the
definitions, sharing and caching nothing, so tests can hold the
optimized path to them with ``==``:

* :func:`xml_context_vector` — Definitions 6-7, with the documented
  clamp of the normalized weight to 1;
* :func:`concept_score` — Definition 8 (Eq. 10 for compound
  candidates);
* :func:`context_score` — Definition 10 (Eq. 12 for compound
  candidates);
* :func:`combined_score` — Eq. 13.

The sense inventories (:func:`~repro.core.candidates.context_sense_ids`),
the concept spheres of the semantic network and the pairwise measure
``Sim`` (Definition 9) are the library's own: they are the inputs the
definitions are stated over, not part of the scoring path under test.
"""

from __future__ import annotations

from repro.core.candidates import Candidate, context_sense_ids
from repro.core.context_vector import (
    compound_concept_context_vector,
    concept_context_vector,
)
from repro.core.sphere import Sphere
from repro.semnet.network import SemanticNetwork
from repro.similarity.vector import VECTOR_MEASURES


def xml_context_vector(sphere: Sphere) -> dict[str, float]:
    """Definitions 6-7: ``V_d(x)`` over the sphere's labels.

    ``Struct = 1 - Dist / (d + 1)`` per member, ``Freq(l)`` sums it over
    the members labeled ``l``, and ``w(l) = 2 * Freq / (|S| + 1)``,
    clamped to 1.
    """
    frequencies: dict[str, float] = {}
    for member in sphere:
        struct = 1.0 - member.distance / (sphere.radius + 1.0)
        label = member.node.label
        frequencies[label] = frequencies.get(label, 0.0) + struct
    return {
        label: min(1.0, freq / ((len(sphere) + 1.0) / 2.0))
        for label, freq in frequencies.items()
    }


def concept_score(
    candidate: Candidate,
    sphere: Sphere,
    network: SemanticNetwork,
    similarity,
) -> float:
    """Definition 8: ``Concept_Score(s_p, S_d(x), SN)``.

    ``(1/|S_d(x)|) * sum over x_i in S_d(x) of max_j Sim(s_p, s_j^i) *
    w_V(x_i.label)``; a compound candidate's ``Sim`` is the average over
    its parts (Eq. 10), and a member without senses adds nothing.
    """
    weights = xml_context_vector(sphere)
    total = 0.0
    for member in sphere:
        sense_ids = context_sense_ids(member.node, network)
        if not sense_ids:
            continue
        averages = []
        for sense_id in sense_ids:
            # Left to right from 0.0: the summation order the library
            # states, whatever the interpreter's sum() does.
            part_total = 0.0
            for part in candidate:
                part_total += similarity(part, sense_id)
            averages.append(part_total / len(candidate))
        total += max(averages) * weights[member.node.label]
    return total / len(sphere) if len(sphere) else 0.0


def context_score(
    candidate: Candidate,
    sphere: Sphere,
    network: SemanticNetwork,
    radius: int,
    measure: str = "cosine",
    strip_target_dimension: bool = False,
) -> float:
    """Definition 10: ``Context_Score(s_p, S_d(x), SN)``.

    The vector measure (cosine in the paper) between ``V_d(x)`` and the
    candidate's concept-sphere vector ``V_d(s_p)``; a compound
    candidate's sphere is the union of its parts' spheres (Eq. 12).
    ``strip_target_dimension`` is the library's extension that drops
    the target's own label and tokens from both vectors.
    """
    xml_vector = xml_context_vector(sphere)
    if len(candidate) == 1:
        concept_vector = concept_context_vector(network, candidate[0], radius)
    else:
        concept_vector = compound_concept_context_vector(
            network, candidate, radius
        )
    if strip_target_dimension:
        drop = {sphere.center.label, *sphere.center.tokens}
        xml_vector = {k: v for k, v in xml_vector.items() if k not in drop}
        concept_vector = {
            k: v for k, v in concept_vector.items() if k not in drop
        }
    return VECTOR_MEASURES[measure](xml_vector, concept_vector)


def combined_score(
    concept: float, context: float, w_concept: float, w_context: float
) -> float:
    """Eq. 13: the weighted combination of the two processes."""
    return w_concept * concept + w_context * context
