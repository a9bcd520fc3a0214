"""Vector similarity measures over sparse label-weight vectors.

Context vectors (paper Definition 6) are sparse mappings from node
labels to weights.  The context-based disambiguation score (Definition
10) compares them with cosine similarity; Jaccard and Pearson variants
are provided because the paper explicitly notes they are drop-in
replacements.

Every sum here is a plain left-to-right loop from ``0.0`` over a fixed
order: CPython 3.12 made float ``sum()`` compensated, and a sum over a
``set`` of labels follows string hashing, so either would move the low
bits of scores with the interpreter version or ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
from typing import Mapping

Vector = Mapping[str, float]


def vector_norm(u: Vector) -> float:
    """Euclidean norm of a sparse vector (summed in iteration order)."""
    total = 0.0
    for w in u.values():
        total += w * w
    return math.sqrt(total)


def cosine_similarity(u: Vector, v: Vector) -> float:
    """Cosine of the angle between two sparse vectors, in [0, 1]."""
    return cosine_from_norms(u, vector_norm(u), v, vector_norm(v))


def cosine_from_norms(u: Vector, norm_u: float, v: Vector, norm_v: float) -> float:
    """:func:`cosine_similarity` with both norms (:func:`vector_norm`) given.

    Callers comparing one vector against many take its norm once; the
    result is the same float :func:`cosine_similarity` returns.
    """
    if not u or not v:
        return 0.0
    smaller, larger = (u, v) if len(u) <= len(v) else (v, u)
    larger_get = larger.get
    dot = 0.0
    for label, weight in smaller.items():
        dot += weight * larger_get(label, 0.0)
    denominator = norm_u * norm_v
    # Guard the *product*: with subnormal weights it can underflow to
    # zero even when both norms are individually non-zero.
    if denominator == 0.0:
        return 0.0
    return max(0.0, min(1.0, dot / denominator))


def jaccard_similarity(u: Vector, v: Vector) -> float:
    """Weighted (Ruzicka) Jaccard: sum of mins over sum of maxes.

    Summed over ``u``'s labels in iteration order, then ``v``'s labels
    missing from ``u``.
    """
    if not u or not v:
        return 0.0
    labels = list(u)
    labels.extend(label for label in v if label not in u)
    numerator = denominator = 0.0
    for label in labels:
        weight_u = u.get(label, 0.0)
        weight_v = v.get(label, 0.0)
        numerator += min(weight_u, weight_v)
        denominator += max(weight_u, weight_v)
    if denominator == 0.0:
        return 0.0
    return max(0.0, min(1.0, numerator / denominator))


def pearson_similarity(u: Vector, v: Vector) -> float:
    """Pearson correlation over the union of dimensions, mapped to [0, 1].

    Correlation ranges [-1, 1]; it is rescaled via ``(r + 1) / 2`` so the
    function is interchangeable with :func:`cosine_similarity`.
    """
    labels = sorted(set(u) | set(v))
    if len(labels) < 2:
        return 0.0
    xs = [u.get(label, 0.0) for label in labels]
    ys = [v.get(label, 0.0) for label in labels]
    n = len(labels)
    sum_x = sum_y = 0.0
    for x, y in zip(xs, ys):
        sum_x += x
        sum_y += y
    mean_x = sum_x / n
    mean_y = sum_y / n
    cov = var_x = var_y = 0.0
    for x, y in zip(xs, ys):
        cov += (x - mean_x) * (y - mean_y)
        var_x += (x - mean_x) ** 2
        var_y += (y - mean_y) ** 2
    denominator = math.sqrt(var_x) * math.sqrt(var_y)
    # Multiplying the roots (not rooting the product) avoids the product
    # underflowing to zero for subnormal variances.
    if denominator == 0.0:
        return 0.0
    r = cov / denominator
    return max(0.0, min(1.0, (r + 1.0) / 2.0))


VECTOR_MEASURES = {
    "cosine": cosine_similarity,
    "jaccard": jaccard_similarity,
    "pearson": pearson_similarity,
}
