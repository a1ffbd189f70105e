"""Plain and selective gradient averaging.

``Average`` is the non-Byzantine-resilient baseline used by vanilla
TensorFlow's ``SyncReplicasOptimizer`` (the "TF" and "Average" curves of the
paper's evaluation).  ``SelectiveAverage`` is the §3.3 variant designed for
lossy transports: coordinates lost in transit are marked NaN by the packet
layer and simply excluded from the per-coordinate mean.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import AggregationResult, GradientAggregationRule, register_gar
from repro.exceptions import AggregationError


@register_gar("average")
class Average(GradientAggregationRule):
    """Coordinate-wise arithmetic mean of all worker gradients.

    Not Byzantine resilient: a single worker submitting an arbitrarily large
    gradient moves the average arbitrarily far.  Serves as the baseline GAR in
    every experiment.
    """

    resilience = "none"
    supports_non_finite = False

    def __init__(self, f: int = 0) -> None:
        super().__init__(f=f)

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        return AggregationResult(gradient=matrix.mean(axis=0))


@register_gar("selective-average")
class SelectiveAverage(GradientAggregationRule):
    """NaN-aware averaging for unreliable transports (§3.3).

    The lossy channel replaces coordinates carried by dropped packets with
    NaN; this rule averages, per coordinate, only the values that actually
    arrived.  A coordinate lost from *every* worker falls back to zero (no
    update for that coordinate this step), which preserves convergence as long
    as losses are transient.

    Like plain averaging this offers no Byzantine resilience — it exists to
    isolate the benefit of UDP transport from the benefit of robust
    aggregation in the Figure 8 experiments.
    """

    resilience = "none"
    supports_non_finite = True

    def __init__(self, f: int = 0) -> None:
        super().__init__(f=f)

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        finite = np.isfinite(matrix)
        if not finite.any():
            raise AggregationError("selective averaging received no finite coordinate at all")
        counts = finite.sum(axis=0)
        sums = np.where(finite, matrix, 0.0).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        return AggregationResult(gradient=mean)


__all__ = ["Average", "SelectiveAverage"]
