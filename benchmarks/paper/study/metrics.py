"""Evaluation metrics used across the study and performance experiments.

* :func:`study_accuracy` — the user-study metric of §7.1: the sum of
  ground-truth relevance scores of the retrieved visualizations over the
  best achievable sum, as a percentage.
* :func:`tie_aware_overlap` — the Figure 12 accuracy: fraction of an
  algorithm's top-k that the DP oracle scores at its own k-th best or
  within a tolerance of it.
* :func:`kth_score_deviation` — Figure 12's annotation: how far (in %)
  the k-th selected visualization's score sits from the k-th optimal.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence


def study_accuracy(
    retrieved: Sequence[Hashable],
    relevance: Dict[Hashable, float],
    k: int,
) -> float:
    """Percentage of the best achievable relevance captured by ``retrieved``."""
    achieved = sum(relevance.get(key, 0.0) for key in list(retrieved)[:k])
    best = sum(sorted(relevance.values(), reverse=True)[:k])
    if best <= 0:
        return 0.0
    return 100.0 * achieved / best


def tie_aware_overlap(
    selected: Sequence[Hashable],
    reference_scores: Dict[Hashable, float],
    k: int,
    tolerance: float = 0.01,
) -> float:
    """Top-k accuracy robust to near-ties in the oracle's scores.

    A selected visualization counts as correct when its oracle score
    reaches the oracle's k-th best score within ``tolerance`` — an
    identity-based overlap (|selected ∩ reference| / |reference|) churns arbitrarily
    when many candidates tie at the cut-off, which synthetic suites
    (and the paper's "never off by more than 2 visualizations" remark)
    make common.
    """
    if not reference_scores or k <= 0:
        return 0.0
    kth = sorted(reference_scores.values(), reverse=True)[min(k, len(reference_scores)) - 1]
    hits = sum(
        1
        for key in list(selected)[:k]
        if reference_scores.get(key, -2.0) >= kth - tolerance
    )
    return 100.0 * hits / k


def kth_score_deviation(
    algorithm_scores: Sequence[float], optimal_scores: Sequence[float]
) -> float:
    """Average % deviation of the k-th algorithm score from the k-th optimal.

    Scores live in [-1, 1]; deviations are measured relative to the
    optimal score's distance from the floor (−1) so the percentage stays
    meaningful for near-zero optima.
    """
    if not algorithm_scores or not optimal_scores:
        return 0.0
    k = min(len(algorithm_scores), len(optimal_scores))
    algorithm_k = sorted(algorithm_scores, reverse=True)[k - 1]
    optimal_k = sorted(optimal_scores, reverse=True)[k - 1]
    denominator = max(1e-9, optimal_k + 1.0)
    return 100.0 * abs(optimal_k - algorithm_k) / denominator
