"""Frozen whole-matrix distance and Bulyan selection kernels.

Verbatim copies of ``repro.core.kernels.pairwise_squared_distances`` and
``bulyan_select`` as they were before both moved onto row blocks: the
distances built a second ``n x n`` buffer for ``sq_i + sq_j``, and the
selection copied the whole capped matrix to build its tail tables and row
sums, stored them row-major ``(n, f + 1)``, guarded each round on the
running scores themselves through ``np.flatnonzero`` and gathered its
re-decision blocks with ``np.ix_``.  The block kernels must return
``tobytes()``-equal distances and the same winners
(``tests/test_row_block_kernels.py``); the speed gate in
``benchmarks/test_gar_kernels_speed.py`` times against
``reference_bulyan_select``.  Do not "simplify" these to call the kernel
module — their point is being independent of it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ResilienceConditionError

HUGE = np.finfo(np.float64).max / 1e6


def reference_pairwise_squared_distances(matrix: np.ndarray) -> np.ndarray:
    finite = np.isfinite(matrix)
    all_finite = bool(finite.all())
    as_is = all_finite and matrix.dtype.kind == "f"
    safe = matrix if as_is else np.where(finite, matrix, 0.0)
    sq_norms = np.einsum("ij,ij->i", safe, safe)
    gram = safe @ safe.T
    gram *= 2.0
    dist = sq_norms[:, None] + sq_norms[None, :]
    np.subtract(dist, gram, out=dist)
    np.maximum(dist, 0.0, out=dist)
    if not all_finite:
        bad = ~finite.all(axis=1)
        dist[bad, :] = np.inf
        dist[:, bad] = np.inf
    np.fill_diagonal(dist, 0.0)
    return dist


def _reference_partition_sum(block: np.ndarray, num_neighbours: int) -> np.ndarray:
    np.minimum(block, HUGE, out=block)
    block.partition(num_neighbours - 1, axis=1)
    return block[:, :num_neighbours].sum(axis=1)


def reference_bulyan_select(distances: np.ndarray, f: int, theta: int) -> np.ndarray:
    n = distances.shape[0]
    n_neighbors = n - f - 2
    if n_neighbors < 1:
        raise ResilienceConditionError(
            f"Bulyan selection needs n - f - 2 >= 1 neighbours, got n={n}, f={f}"
        )
    if not 1 <= theta <= n:
        raise ResilienceConditionError(
            f"Bulyan selection needs 1 <= theta <= n, got theta={theta} for n={n}"
        )
    tail = f + 1
    capped = np.minimum(distances, HUGE)
    np.fill_diagonal(capped, -1.0)
    tail_cols = np.argpartition(capped, n - tail, axis=1)[:, n - tail:]
    tail_vals = np.take_along_axis(capped, tail_cols, axis=1)
    order = np.argsort(-tail_vals, axis=1, kind="stable")
    tail_cols = np.take_along_axis(tail_cols, order, axis=1)
    tail_vals = np.take_along_axis(tail_vals, order, axis=1)
    np.fill_diagonal(capped, 0.0)
    row_sums = capped.sum(axis=1)
    err_bound = 4.0 * n * np.finfo(np.float64).eps * row_sums
    active = np.ones(n, dtype=bool)
    selected = np.empty(theta, dtype=np.intp)
    for rounds in range(theta):
        excluded = tail - rounds
        scores = row_sums
        if excluded > 0:
            alive = active[tail_cols]
            largest = alive & (np.cumsum(alive, axis=1, dtype=np.int32) <= excluded)
            scores = row_sums - np.add.reduce(tail_vals, axis=1, where=largest)
        winner = int(np.argmin(scores))
        near = np.flatnonzero(scores <= scores[winner] + err_bound + err_bound[winner])
        if near.size > 1:
            remaining = np.flatnonzero(active)
            block = distances[np.ix_(near, remaining)]
            block[np.arange(near.size), np.searchsorted(remaining, near)] = np.inf
            exact = _reference_partition_sum(block, min(n_neighbors, remaining.size - 1))
            winner = int(near[int(np.argmin(exact))])
        selected[rounds] = winner
        active[winner] = False
        row_sums -= capped[:, winner]
        row_sums[winner] = np.inf
    return selected
