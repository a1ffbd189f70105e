"""Mean-around-median rules of Xie et al., 2018 ("Generalized Byzantine-tolerant SGD").

Two of the three rules evaluated by Xie et al. are implemented here and can be
plugged into the framework exactly like the Median comparator of the paper's
evaluation:

* **MeaMed** — per coordinate, average the ``n - f`` values closest to the
  coordinate-wise median;
* **Phocas** — per coordinate, average the ``n - f`` values closest to the
  coordinate-wise *trimmed mean* (two-step rule).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import AggregationResult, GradientAggregationRule, register_gar
from repro.core.kernels import (
    fill_non_finite_extremes,
    mean_around_center,
    trimmed_mean_around_median,
)
from repro.exceptions import ResilienceConditionError


@register_gar("meamed")
class MeaMed(GradientAggregationRule):
    """Mean-around-median: average the ``n - f`` values nearest the median, per coordinate.

    After the non-finite fill it is Bulyan's trimming kernel with ``beta = n - f``.
    """

    resilience = "weak"
    supports_non_finite = True
    min_workers_linear = (2, 1)

    @classmethod
    def minimum_workers(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        n = matrix.shape[0]
        keep = n - self.f
        if keep < 1:
            raise ResilienceConditionError(f"MeaMed needs n - f >= 1, got n={n}, f={self.f}")
        clean = fill_non_finite_extremes(matrix)
        return AggregationResult(gradient=trimmed_mean_around_median(clean, keep))


@register_gar("phocas")
class Phocas(GradientAggregationRule):
    """Phocas: mean around the coordinate-wise trimmed mean (two-step rule)."""

    resilience = "weak"
    supports_non_finite = True
    min_workers_linear = (2, 1)

    @classmethod
    def minimum_workers(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        n = matrix.shape[0]
        f = self.f
        keep = n - f
        if keep < 1 or n - 2 * f < 1:
            raise ResilienceConditionError(f"Phocas needs n >= 2f + 1, got n={n}, f={f}")
        clean = fill_non_finite_extremes(matrix)
        if f == 0:
            center = clean.mean(axis=0)
        else:
            order = np.sort(clean, axis=0)
            center = order[f : n - f, :].mean(axis=0)
        return AggregationResult(gradient=mean_around_center(clean, center, keep))


__all__ = ["MeaMed", "Phocas"]
