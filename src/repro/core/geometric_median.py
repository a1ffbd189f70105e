"""Geometric-median gradient aggregation (Weiszfeld iteration).

Included as an additional weakly Byzantine-resilient comparator in the spirit
of the median-based rules surveyed in §5 of the paper.  The geometric median
minimises the sum of Euclidean distances to the worker gradients and has
breakdown point 1/2.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import AggregationResult, GradientAggregationRule, register_gar
from repro.exceptions import ConfigurationError


@register_gar("geometric-median")
class GeometricMedian(GradientAggregationRule):
    """Approximate geometric median via the Weiszfeld algorithm.

    Parameters
    ----------
    f:
        Declared number of Byzantine workers; requires ``n >= 2f + 1``.
    max_iter:
        Maximum number of Weiszfeld iterations.
    tol:
        Relative movement threshold below which the iteration stops.
    """

    resilience = "weak"
    supports_non_finite = True

    def __init__(self, f: int = 0, max_iter: int = 100, tol: float = 1e-8) -> None:
        super().__init__(f=f)
        if max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
        if tol <= 0:
            raise ConfigurationError(f"tol must be > 0, got {tol}")
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    @classmethod
    def minimum_workers(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        finite_rows = np.isfinite(matrix).all(axis=1)
        points = matrix[finite_rows]
        if points.shape[0] == 0:
            raise ConfigurationError("geometric median received no finite gradient")
        estimate = np.median(points, axis=0)
        for _ in range(self.max_iter):
            diffs = points - estimate[None, :]
            dists = np.linalg.norm(diffs, axis=1)
            # A point coinciding with the estimate has zero distance; clamp to
            # avoid division by zero (standard Weiszfeld modification).
            dists = np.maximum(dists, 1e-12)
            weights = 1.0 / dists
            new_estimate = (weights[:, None] * points).sum(axis=0) / weights.sum()
            movement = np.linalg.norm(new_estimate - estimate)
            scale = max(np.linalg.norm(estimate), 1e-12)
            estimate = new_estimate
            if movement / scale < self.tol:
                break
        return AggregationResult(gradient=estimate)


__all__ = ["GeometricMedian"]
