"""Brute / Minimum-Diameter Averaging (MDA) gradient aggregation.

The original AggregaThor code base ships a "brute" aggregator: enumerate every
subset of ``n - f`` gradients, pick the subset with the smallest *diameter*
(the largest pairwise distance inside the subset), and return its average.
This rule is strongly Byzantine resilient for ``n >= 2f + 1`` but its cost is
combinatorial in ``n`` (``C(n, n-f)`` subsets), which is why Multi-Krum /
Bulyan are the practical choices — making Brute both a useful correctness
oracle and an instructive cost comparison point.

The subset scan has two implementations chosen from the input size alone:
the combinadic-indexed :func:`repro.core.kernels.brute_select` while
``C(n, n-f)`` fits :data:`~repro.core.kernels.BRUTE_VECTOR_SUBSET_LIMIT`, and
the constant-memory :meth:`Brute._select_loop` above it.  They select
identically (``tests/test_selection_kernels.py``).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.core.base import AggregationResult, GradientAggregationRule, register_gar
from repro.core.kernels import (
    BRUTE_VECTOR_SUBSET_LIMIT,
    SELECTION_CLOCK,
    brute_select,
)
from repro.exceptions import AggregationError, ConfigurationError, ResilienceConditionError


@register_gar("brute")
class Brute(GradientAggregationRule):
    """Minimum-diameter averaging over all ``n - f`` subsets.

    Parameters
    ----------
    f:
        Number of Byzantine workers to tolerate; requires ``n >= 2f + 1``.
    max_workers:
        Safety cap on ``n``: the subset enumeration is combinatorial, so the
        rule refuses inputs larger than this (default 25, ~5 million subsets
        in the worst case for f close to n/2 — still tractable but slow).
    """

    resilience = "strong"
    supports_non_finite = True
    min_workers_linear = (2, 1)

    def __init__(self, f: int = 0, max_workers: int = 25) -> None:
        super().__init__(f=f)
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)

    @classmethod
    def minimum_workers(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        n = matrix.shape[0]
        if n > self.max_workers:
            raise AggregationError(
                f"Brute aggregation over {n} workers would enumerate too many subsets; "
                f"raise max_workers (currently {self.max_workers}) explicitly if intended"
            )
        subset_size = n - self.f
        if subset_size < 1:
            raise ResilienceConditionError(f"Brute needs n - f >= 1, got n={n}, f={self.f}")
        distances = self._distances(matrix)
        with SELECTION_CLOCK.measure():
            if math.comb(n, subset_size) <= BRUTE_VECTOR_SUBSET_LIMIT:
                # Combinadic-indexed vectorised scan: identical selection to
                # the loop below (diameters are exact max reductions and
                # np.argmin keeps the first — lexicographically earliest —
                # minimum), without the per-subset tuple/fancy-index churn.
                selected, _ = brute_select(distances, subset_size)
            else:
                # Above the limit the materialised (C(n, n-f), n-f) subset
                # table is too large: the streaming scan is the only path.
                selected = self._select_loop(distances, n, subset_size)
        chosen = matrix[selected]
        if not np.isfinite(chosen).all():
            raise AggregationError(
                "Brute selected a non-finite gradient: more than f workers submitted "
                "invalid values"
            )
        return AggregationResult(gradient=chosen.mean(axis=0), selected_indices=selected)

    @staticmethod
    def _select_loop(distances: np.ndarray, n: int, subset_size: int) -> np.ndarray:
        """Per-subset scan: the path above the vector limit, and the tests' oracle."""
        best_indices: tuple[int, ...] | None = None
        best_diameter = np.inf
        for subset in combinations(range(n), subset_size):
            idx = np.asarray(subset, dtype=np.intp)
            diameter = distances[np.ix_(idx, idx)].max()
            if best_indices is None or diameter < best_diameter:
                # The seed guard keeps the scan total when every subset has
                # an infinite diameter (more than f quarantined rows): the
                # first subset is kept and the caller's finiteness check
                # raises the proper AggregationError, matching the
                # vectorised path.
                best_diameter = diameter
                best_indices = subset
        assert best_indices is not None
        return np.asarray(best_indices, dtype=np.intp)


__all__ = ["Brute"]
