"""Evaluation metrics: precision / recall / f-value, Pearson correlation.

The paper scores disambiguation quality with the standard WSD metrics
(precision over attempted nodes, recall over all gold-annotated nodes)
and correlates human-vs-system ambiguity ratings with Pearson's
coefficient (Section 4.2).  Every sum is a left-to-right loop from
``0.0``, so the figures keep their bits on every CPython version (3.12's
``sum()`` compensates float sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PRF:
    """Precision, recall, and their harmonic mean."""

    precision: float
    recall: float

    @property
    def f_value(self) -> float:
        """Harmonic mean of precision and recall (0.0 when both 0)."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)

    def __str__(self) -> str:  # pragma: no cover - presentation only
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} F={self.f_value:.3f}"
        )


def precision_recall(n_correct: int, n_predicted: int, n_gold: int) -> PRF:
    """PRF from raw counts.

    ``n_predicted`` counts nodes the system ventured an answer for,
    ``n_gold`` counts all evaluable (gold-annotated) target nodes.
    """
    if n_correct > n_predicted or n_predicted > 0 and n_correct < 0:
        raise ValueError("inconsistent counts")
    precision = n_correct / n_predicted if n_predicted else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    return PRF(precision=precision, recall=recall)


def average_prf(parts: list[PRF]) -> PRF:
    """Macro-average a list of PRF scores."""
    if not parts:
        return PRF(0.0, 0.0)
    precision = recall = 0.0
    for part in parts:
        precision += part.precision
        recall += part.recall
    return PRF(precision=precision / len(parts), recall=recall / len(parts))


def pearson_correlation(xs: list[float], ys: list[float]) -> float:
    """Pearson's product-moment correlation coefficient in [-1, 1].

    Returns 0.0 when either variable has no variance (the conventional
    degenerate-case value; the paper's Table 2 reads such cells as "not
    correlated").
    """
    if len(xs) != len(ys):
        raise ValueError("series must have equal length")
    n = len(xs)
    if n < 2:
        return 0.0
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
    # Root-then-multiply: the raw variance product can underflow to zero
    # for near-subnormal series even when both variances are non-zero.
    if denominator == 0.0:
        return 0.0
    return cov / denominator
