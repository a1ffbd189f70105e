"""Median-style gradient aggregation rules.

``CoordinateWiseMedian`` is the "Median" comparator of the paper's evaluation
(the median-based rule of Xie et al., 2018), and ``TrimmedMean`` is the
related coordinate-wise trimmed mean of Yin et al., 2018.  Both are weakly
Byzantine resilient: they bound the influence of up to ``f < n/2`` outliers on
every coordinate, but a dimension-aware attacker can still steer convergence
(the motivation for Bulyan).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import AggregationResult, GradientAggregationRule, register_gar
from repro.core.kernels import fill_non_finite_extremes


@register_gar("median")
class CoordinateWiseMedian(GradientAggregationRule):
    """Coordinate-wise median of the worker gradients.

    Tolerates ``f < n/2`` Byzantine workers per coordinate (weak resilience).
    Non-finite coordinates are pushed to +Inf-like extremes before taking the
    median so that a NaN submitted by a malicious worker cannot poison the
    output (NaN would otherwise propagate through ``np.median``).
    """

    resilience = "weak"
    supports_non_finite = True

    @classmethod
    def minimum_workers(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        # Non-finite coordinates are treated as maximally adversarial
        # outliers: push them beyond the finite range so the median
        # ignores them as long as a majority of values are finite.
        clean = fill_non_finite_extremes(matrix)
        return AggregationResult(gradient=np.median(clean, axis=0))


@register_gar("trimmed-mean")
class TrimmedMean(GradientAggregationRule):
    """Coordinate-wise trimmed mean (Yin et al., 2018).

    For each coordinate the largest ``f`` and smallest ``f`` values are
    discarded and the remaining ``n - 2f`` values are averaged.  Requires
    ``n >= 2f + 1``; weakly Byzantine resilient.
    """

    resilience = "weak"
    supports_non_finite = True

    @classmethod
    def minimum_workers(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        n = matrix.shape[0]
        f = self.f
        clean = fill_non_finite_extremes(matrix)
        if f == 0:
            return AggregationResult(gradient=clean.mean(axis=0))
        order = np.sort(clean, axis=0)
        kept = order[f : n - f, :]
        return AggregationResult(gradient=kept.mean(axis=0))


__all__ = ["CoordinateWiseMedian", "TrimmedMean"]
