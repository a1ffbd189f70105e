"""Centered-clipping and norm-clipping gradient aggregation.

Centered clipping (Karimireddy et al., 2021) is a later-generation robust
rule frequently compared against the Krum/Bulyan family: starting from a
reference vector (the previous aggregate), every worker's deviation from the
reference is clipped to a radius ``tau`` and the clipped deviations are
averaged.  It is cheap — O(nd) like averaging — and tolerant of NaN
submissions, which makes it a useful extension point for the framework and a
good ablation against the O(n^2 d) selection rules.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import AggregationResult, GradientAggregationRule, register_gar
from repro.exceptions import ConfigurationError


@register_gar("centered-clipping")
class CenteredClipping(GradientAggregationRule):
    """Iterative centered clipping around a running reference vector.

    Parameters
    ----------
    f:
        Declared number of Byzantine workers (used only for the resilience
        precondition ``n >= 2f + 1``; the clipping radius is what actually
        bounds the adversary's influence).
    tau:
        Clipping radius.  ``None`` selects, at each call, the median of the
        distances between the submissions and the current reference — a
        parameter-free heuristic that adapts to the gradient scale.
    iterations:
        Number of clipping iterations per aggregation call.
    """

    resilience = "weak"
    supports_non_finite = True

    def __init__(self, f: int = 0, tau: Optional[float] = None, iterations: int = 3) -> None:
        super().__init__(f=f)
        if tau is not None and tau <= 0:
            raise ConfigurationError(f"tau must be positive or None, got {tau}")
        if iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
        self.tau = tau
        self.iterations = int(iterations)
        self._reference: Optional[np.ndarray] = None

    @classmethod
    def minimum_workers(cls, f: int) -> int:
        return 2 * f + 1

    def reset(self) -> None:
        """Forget the running reference (e.g. when reusing the rule across runs)."""
        self._reference = None

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        finite_rows = np.isfinite(matrix).all(axis=1)
        if not finite_rows.any():
            raise ConfigurationError("centered clipping received no finite gradient")
        usable = matrix[finite_rows]
        reference = self._reference
        if reference is None or reference.shape != (matrix.shape[1],):
            reference = np.median(usable, axis=0)
        for _ in range(self.iterations):
            deviations = usable - reference[None, :]
            norms = np.linalg.norm(deviations, axis=1)
            radius = self.tau if self.tau is not None else max(float(np.median(norms)), 1e-12)
            scales = np.minimum(1.0, radius / np.maximum(norms, 1e-12))
            reference = reference + (deviations * scales[:, None]).mean(axis=0)
        self._reference = reference
        return AggregationResult(gradient=reference.copy())


@register_gar("norm-clipping")
class NormClippedMean(GradientAggregationRule):
    """Mean of gradients whose norms are clipped to the median norm.

    A simple robustification of averaging: bounded-norm outliers can still
    bias the direction (no Byzantine-resilience guarantee), but magnitude
    explosions — the easiest attack — are neutralised.  Included as a weak
    baseline between plain averaging and the true robust rules.
    """

    resilience = "none"
    supports_non_finite = True

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        finite_rows = np.isfinite(matrix).all(axis=1)
        if not finite_rows.any():
            raise ConfigurationError("norm clipping received no finite gradient")
        usable = matrix[finite_rows]
        norms = np.linalg.norm(usable, axis=1)
        radius = max(float(np.median(norms)), 1e-12)
        scales = np.minimum(1.0, radius / np.maximum(norms, 1e-12))
        return AggregationResult(gradient=(usable * scales[:, None]).mean(axis=0))


__all__ = ["CenteredClipping", "NormClippedMean"]
