"""Bulyan over Multi-Krum (El Mhamdi et al., 2018) — strong Byzantine resilience.

Bulyan runs in two phases:

1. **Selection.**  Iterate the underlying weakly Byzantine-resilient GAR
   (Krum selection) ``theta = n - 2f`` times.  Each iteration extracts the
   best-scoring gradient from the remaining pool and removes it, producing a
   selection set ``S`` of ``theta`` gradients.
2. **Trimmed coordinate-wise aggregation.**  For every coordinate, compute the
   median over ``S`` and average the ``beta = theta - 2f`` values closest to
   that median.

This bounds, per coordinate, the distance between the output and a correct
gradient, which is the definition of strong Byzantine resilience.  The
requirement is ``n >= 4f + 3``.

Optimisations, following the paper ("MULTI-KRUM performs the distance
computations only on the first iteration of BULYAN; the next iterations only
update the scores"):

* the ``(n, n)`` pairwise distance matrix is computed **once** (finished in
  its Gram buffer); every selection iteration merely restricts the score
  reduction to the still-active rows and never recomputes the distances;
* selection is the update-only :func:`repro.core.kernels.bulyan_select`
  kernel, which takes that sentence literally from round 0.  With ``r`` gradients extracted, a score sums the
  ``n - f - 2`` smallest of the ``n - r - 1`` remaining distances of a row,
  i.e. *all* of them but the ``e = max(f + 1 - r, 0)`` largest — and those
  are the first ``e`` not-yet-extracted entries of the row's **tail table**,
  its ``f + 1`` largest distances sorted once up front (at most ``r`` of the
  ``f + 1`` are gone, and nothing outside the table exceeds an entry inside
  it).  So ``score = running row sum - first e remaining tail entries``:
  each round subtracts the winner's column from the row sums, O(n), plus
  O(n f) of tail-table reads while ``e > 0`` — no round rescans or copies
  the remaining submatrix.  Tables and row sums come from row blocks of a
  small scratch: no ``n x n`` temporary to fault in afresh every step, and
  the distances are never written.  The per-round rescan loop below
  (:func:`_bulyan_selection`) is not a mode of :class:`Bulyan`: it is
  :class:`NaiveBulyan`'s path and the tests' oracle, and its score
  arithmetic is what the kernel re-runs, for the tied rows only, when a
  round's minimum is not provably unique under its rounding bound;
* the number of neighbours entering each score is the Multi-Krum value
  ``n - f - 2`` fixed from the *original* ``n`` (clamped to the remaining pool
  size), so the first iteration is exactly Multi-Krum's scoring pass;
* the trimmed phase (:func:`repro.core.kernels.trimmed_mean_around_median`)
  takes the median of the finite selection (a non-finite selected row raises
  ``AggregationError`` first) from one middle-kth partition, not
  ``np.median``'s NaN-sentinel sweep, bytes-equal to the ``np.median`` oracle.

A reference implementation recomputing the distances from scratch at every
iteration is provided as :class:`NaiveBulyan` for the ablation benchmark and
as an independent oracle in the test-suite.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import AggregationResult, GradientAggregationRule, register_gar
from repro.core.kernels import (
    SELECTION_CLOCK,
    bulyan_select,
    neighbour_sum_scores,
    pairwise_squared_distances,
    trimmed_mean_around_median,
)
from repro.exceptions import AggregationError, ResilienceConditionError


def _scores_on_active(distances: np.ndarray, active_idx: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Krum scores restricted to the rows/columns in *active_idx*.

    *n_neighbors* is clamped to the number of available other rows so the
    reduction stays defined late in the selection loop.
    """
    sub = distances[np.ix_(active_idx, active_idx)]
    q = min(n_neighbors, active_idx.size - 1)
    if q < 1:
        raise ResilienceConditionError(
            f"Bulyan selection needs at least 2 remaining gradients, got {active_idx.size}"
        )
    return neighbour_sum_scores(sub, q)


def _bulyan_selection(matrix: np.ndarray, f: int, theta: int,
                      *, recompute_distances: bool = False,
                      distances: np.ndarray | None = None) -> np.ndarray:
    """Indices of the ``theta`` gradients extracted by iterated Krum selection.

    With ``recompute_distances=False`` (the optimised path) one pairwise
    distance computation is shared across all iterations; with ``True`` the
    distances are recomputed on the remaining pool each round (reference path
    used by :class:`NaiveBulyan`).  Both paths produce identical selections
    because the pairwise distances between surviving gradients do not change
    when other gradients are removed.  *distances* optionally supplies the
    precomputed ``(n, n)`` matrix (the rule's distance provider / cache
    path); it is ignored on the recompute-every-round reference path.
    """
    n = matrix.shape[0]
    n_neighbors = n - f - 2
    if n_neighbors < 1:
        raise ResilienceConditionError(
            f"Bulyan selection needs n - f - 2 >= 1 neighbours, got n={n}, f={f}"
        )
    if not recompute_distances and distances is None:
        distances = pairwise_squared_distances(matrix)
    active = np.ones(n, dtype=bool)
    selected: list[int] = []
    for _ in range(theta):
        remaining = np.flatnonzero(active)
        if remaining.size == 1:
            # Degenerate tail of the loop (only possible for f = 0): the last
            # remaining gradient is selected unconditionally.
            selected.append(int(remaining[0]))
            active[remaining[0]] = False
            continue
        if recompute_distances:
            dist = pairwise_squared_distances(matrix[remaining])
            scores = _scores_on_active(dist, np.arange(remaining.size), n_neighbors)
        else:
            scores = _scores_on_active(distances, remaining, n_neighbors)
        winner = remaining[int(np.argmin(scores))]
        selected.append(int(winner))
        active[winner] = False
    return np.asarray(selected, dtype=np.intp)


@register_gar("bulyan")
class Bulyan(GradientAggregationRule):
    """Bulyan with iterated Krum selection — the strong-resilience GAR of AggregaThor.

    Parameters
    ----------
    f:
        Number of Byzantine workers to tolerate; requires ``n >= 4f + 3``.
    """

    resilience = "strong"
    supports_non_finite = True
    #: Whether the selection loop recomputes pairwise distances every round.
    recompute_distances = False

    @classmethod
    def minimum_workers(cls, f: int) -> int:
        return 4 * f + 3

    def _aggregate(self, matrix: np.ndarray) -> AggregationResult:
        n = matrix.shape[0]
        theta = n - 2 * self.f
        beta = theta - 2 * self.f
        if beta < 1:
            raise ResilienceConditionError(
                f"Bulyan with f={self.f} requires n >= {self.minimum_workers(self.f)}, got n={n}"
            )
        if self.recompute_distances:
            with SELECTION_CLOCK.measure():
                selected = _bulyan_selection(
                    matrix, self.f, theta, recompute_distances=True
                )
        else:
            distances = self._distances(matrix)
            with SELECTION_CLOCK.measure():
                selected = bulyan_select(distances, self.f, theta)
        chosen = matrix[selected]
        if not np.isfinite(chosen).all():
            raise AggregationError(
                "Bulyan selected a non-finite gradient: more than f workers "
                "submitted invalid values"
            )
        gradient = trimmed_mean_around_median(chosen, beta)
        return AggregationResult(gradient=gradient, selected_indices=selected)


class NaiveBulyan(Bulyan):
    """Reference Bulyan recomputing pairwise distances from scratch each round.

    Exists for the ablation benchmark (optimised vs naive) and as an
    independent oracle in the tests; it produces bit-identical results to
    :class:`Bulyan` but performs ``theta`` times the distance work.  It is
    intentionally *not* registered in the GAR registry.
    """

    recompute_distances = True


__all__ = ["Bulyan", "NaiveBulyan"]
