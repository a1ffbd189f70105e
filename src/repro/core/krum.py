"""Krum and Multi-Krum gradient aggregation rules (Blanchard et al., 2017).

Multi-Krum is the first algorithmic component of AggregaThor and provides
*weak* Byzantine resilience for ``n >= 2f + 3`` and any ``1 <= m <= n - f - 2``
(the paper's appendix proves the resilience for ``m > 1``, answering the open
question of Blanchard et al.).

Scoring.  Each worker gradient :math:`G_i` receives the score

.. math::

    s(i) = \\sum_{i \\to j} \\lVert G_i - G_j \\rVert^2

where ``i -> j`` ranges over the ``n - f - 2`` gradients closest to
:math:`G_i` (in squared L2 norm).  Multi-Krum returns the average of the ``m``
smallest-scoring gradients; Krum is the special case ``m = 1``.

The numerical core — the vectorised ``(n, n)`` pairwise squared-distance
matrix, the ``np.partition``-based neighbour-sum reduction and the capping of
infinite distances (non-finite gradients are quarantined, never selected, but
still count towards ``n``) — lives in :mod:`repro.core.kernels` and is shared
with Bulyan and Brute.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import AggregationResult, GradientAggregationRule, register_gar
from repro.core.kernels import (
    HUGE,
    SELECTION_CLOCK,
    multi_krum_select,
    neighbour_sum_scores,
    pairwise_squared_distances,
)
from repro.exceptions import AggregationError, ConfigurationError, ResilienceConditionError

#: Backwards-compatible alias of :data:`repro.core.kernels.HUGE`.
_HUGE = HUGE


def krum_scores(distances: np.ndarray, f: int) -> np.ndarray:
    """Krum score of every row given a pairwise squared-distance matrix.

    The score of row *i* is the sum of its ``n - f - 2`` smallest distances to
    *other* rows.  Infinite distances (non-finite gradients) saturate to a
    large finite constant so the ordering stays well defined.
    """
    n = distances.shape[0]
    n_neighbors = n - f - 2
    if n_neighbors < 1:
        raise ResilienceConditionError(
            f"Krum scoring needs n - f - 2 >= 1 neighbours, got n={n}, f={f}"
        )
    return neighbour_sum_scores(distances, n_neighbors)


@register_gar("multi-krum")
class MultiKrum(GradientAggregationRule):
    """Multi-Krum: average of the ``m`` smallest-Krum-score gradients.

    Parameters
    ----------
    f:
        Number of Byzantine workers to tolerate.  Requires ``n >= 2f + 3``.
    m:
        Number of selected gradients to average.  ``None`` (default) selects
        the paper's recommended maximum ``m = n - f - 2`` at aggregation time,
        which the appendix proves is the fastest choice that keeps weak
        Byzantine resilience.  ``m = 1`` recovers the original Krum rule.
    """

    resilience = "weak"
    supports_non_finite = True

    def __init__(self, f: int = 0, m: Optional[int] = None) -> None:
        super().__init__(f=f)
        if m is not None:
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
                raise ConfigurationError(f"m must be a positive integer or None, got {m!r}")
        self.m = None if m is None else int(m)

    @classmethod
    def minimum_workers(cls, f: int) -> int:
        return 2 * f + 3

    def effective_m(self, n: int) -> int:
        """Resolve the number of selected gradients for *n* submitted gradients."""
        max_m = n - self.f - 2
        if max_m < 1:
            raise ResilienceConditionError(
                f"Multi-Krum with f={self.f} needs n >= {self.minimum_workers(self.f)}, got n={n}"
            )
        if self.m is None:
            return max_m
        if self.m > max_m:
            raise ResilienceConditionError(
                f"m={self.m} exceeds the resilience bound n - f - 2 = {max_m} "
                f"(n={n}, f={self.f})"
            )
        return self.m

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        n = matrix.shape[0]
        m = self.effective_m(n)
        distances = self._distances(matrix)
        with SELECTION_CLOCK.measure():
            scores = krum_scores(distances, self.f)
            # Explicitly stable (score, index) ordering: equal scores keep
            # ascending index order for both membership and output order
            # (the previous argpartition selection left boundary ties to the
            # partition's internal arrangement).
            selected = multi_krum_select(scores, m)
        chosen = matrix[selected]
        if not np.isfinite(chosen).all():
            # Only possible when fewer than m gradients are finite; the rule's
            # precondition (at most f Byzantine among n >= 2f + 3) is violated.
            raise AggregationError(
                "Multi-Krum selected a non-finite gradient: more than f workers "
                "submitted invalid values"
            )
        return AggregationResult(
            gradient=chosen.mean(axis=0),
            selected_indices=selected,
            scores=scores,
        )


@register_gar("krum")
class Krum(MultiKrum):
    """The original Krum rule: Multi-Krum with ``m = 1``."""

    def __init__(self, f: int = 0) -> None:
        super().__init__(f=f, m=1)


__all__ = ["Krum", "MultiKrum", "pairwise_squared_distances", "krum_scores"]
