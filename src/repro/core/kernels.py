"""Audited numerical kernels shared by the selection-based GARs.

The Krum family (Krum / Multi-Krum), Bulyan, Brute/MDA and the
mean-around-median rules all reduce to a small set of dense NumPy kernels:
pairwise squared distances with a non-finite quarantine, neighbour-sum
(Krum) scoring with the ``HUGE`` capping convention, coordinate-wise
trimming around a centre, and extreme-outlier filling of non-finite
entries.  Concentrating them here gives every rule one audited hot path
(the precondition for caching and sharding the O(n^2 d) distance work)
instead of the previous web of cross-imports between the rule modules.

Conventions enforced by this module:

* rows containing NaN / ±Inf are *infinitely far* from every other row, so
  selection rules never pick them — but they still count towards ``n``;
* infinite distances entering a score reduction saturate at :data:`HUGE`
  (a float64-safe cap) so orderings stay well defined even when many rows
  are non-finite;
* coordinate-wise rules replace non-finite entries by extreme *finite*
  outliers, letting order statistics discard them naturally.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.exceptions import ResilienceConditionError

#: Cap used in place of infinite distances so that score sums stay finite even
#: when a row has many non-finite neighbours (dividing by 1e6 leaves room to
#: sum ~1e6 capped terms without overflowing float64).
HUGE = np.finfo(np.float64).max / 1e6


class SelectionClock:
    """Host-seconds accumulator for the GAR *selection* stage.

    The trainers bracket the whole aggregation call as ``gar_kernel``;
    this clock lets them split out the time spent choosing gradients
    (score reductions, the Bulyan extraction loop, Brute's subset scan)
    from the distance pass and the trimming/averaging maths.  The rule
    modules credit it around their selection stage; a trainer drains it
    after closing its ``gar_kernel`` bracket and re-books the seconds
    under ``gar_select`` so the profiler's sections stay disjoint.
    """

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.calls += 1

    @contextmanager
    def measure(self):
        """Credit the clock with the host time spent inside the block."""
        # simlint: disable=SIM101 SELECTION_CLOCK measures host time only; it
        # is drained into the profiler's gar_select bucket and never feeds
        # back into simulated time or any training decision.
        start = time.perf_counter()
        try:
            yield
        finally:
            # simlint: disable=SIM101 host-profiling clock (see above)
            self.add(time.perf_counter() - start)

    def drain(self) -> tuple:
        """Return ``(seconds, calls)`` accumulated since the last drain."""
        out = (self.seconds, self.calls)
        self.seconds = 0.0
        self.calls = 0
        return out


#: Process-wide selection clock shared by every rule instance.  The trainers
#: drain it immediately after each aggregation call, so concurrent trainers
#: in one process would contend — the simulator is single-threaded by design.
SELECTION_CLOCK = SelectionClock()


#: Entries per row block of the ``(n, n)`` kernels below (256 KiB of float64,
#: 54 rows at n = 600): one such scratch replaces their ``n x n`` temporaries.
_ROW_BLOCK_ENTRIES = 32_768


def _row_blocks(n: int, dtype=np.float64):
    """``(lo, hi, scratch, diagonal)`` per row block: *scratch* is a ``(hi - lo, n)``
    view of one shared buffer, *diagonal* indexes the block's self entries."""
    rows = max(1, min(n, _ROW_BLOCK_ENTRIES // max(n, 1)))
    buffer = np.empty((rows, n), dtype=dtype)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        yield lo, hi, buffer[:hi - lo], (np.arange(hi - lo), np.arange(lo, hi))


def pairwise_squared_distances(matrix: np.ndarray) -> np.ndarray:
    """Dense ``(n, n)`` matrix of squared Euclidean distances between rows.

    Rows containing non-finite values are treated as infinitely far from every
    other row (and from each other), so that selection-based rules never pick
    them.  The diagonal is zero; the Gram product's buffer becomes the output.
    """
    finite = np.isfinite(matrix)
    all_finite = bool(finite.all())
    # Copy only to zero non-finite entries or to promote integer input.
    as_is = all_finite and matrix.dtype.kind == "f"
    safe = matrix if as_is else np.where(finite, matrix, 0.0)
    sq_norms = np.einsum("ij,ij->i", safe, safe)
    dist = safe @ safe.T  # (sq_i + sq_j) - 2 * gram, in that order, by row blocks
    dist *= 2.0
    for lo, hi, block, _ in _row_blocks(dist.shape[0], dist.dtype):
        rows = dist[lo:hi]
        np.add(sq_norms[lo:hi, None], sq_norms[None, :], out=block)
        np.subtract(block, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)  # clip tiny negatives from round-off
    if not all_finite:
        bad = ~finite.all(axis=1)
        dist[bad, :] = np.inf
        dist[:, bad] = np.inf
    np.fill_diagonal(dist, 0.0)
    return dist


def _partition_sum(block: np.ndarray, num_neighbours: int) -> np.ndarray:
    """Per-row sum of the ``num_neighbours`` smallest entries, capped at HUGE.

    In place on *block*, which the caller owns and whose self-distances it has
    set to ``+inf``.  Rows are partitioned and summed independently, so a row
    scores the same bits whichever other rows share the block.
    """
    np.minimum(block, HUGE, out=block)
    block.partition(num_neighbours - 1, axis=1)
    return block[:, :num_neighbours].sum(axis=1)


def neighbour_sum_scores(distances: np.ndarray, num_neighbours: int) -> np.ndarray:
    """Sum of each row's ``num_neighbours`` smallest off-diagonal distances.

    This is the Krum score reduction: the diagonal (self-distance) is
    excluded, infinite distances saturate at :data:`HUGE` so the sum stays
    finite, and the partition keeps the reduction linear per row.  Rows score
    alike in any block: a block-sized scratch copy is all that is written.
    """
    n = distances.shape[0]
    if not 1 <= num_neighbours <= n - 1:
        raise ResilienceConditionError(
            f"neighbour-sum scoring needs 1 <= num_neighbours <= n - 1, "
            f"got num_neighbours={num_neighbours} for n={n}"
        )
    scores = np.empty(n, dtype=distances.dtype)
    for lo, hi, block, diagonal in _row_blocks(n, distances.dtype):
        np.copyto(block, distances[lo:hi])
        block[diagonal] = np.inf
        scores[lo:hi] = _partition_sum(block, num_neighbours)
    return scores


def trimmed_mean_around_median(selection: np.ndarray, beta: int) -> np.ndarray:
    """Coordinate-wise average of the *beta* values closest to the median.

    ``selection`` is ``(theta, d)`` and must be **finite**: ``Bulyan._aggregate``
    refuses a non-finite selected row and ``MeaMed._aggregate`` passes the
    output of :func:`fill_non_finite_extremes`.  The median is one partition
    at the middle order statistic(s), without ``np.median``'s NaN sentinel
    (for even ``theta`` the two middle values, averaged by ``np.median``'s
    ``mean``).  On finite input it is unique up to the sign of zero, which
    ``|x - median|``, written into the partition's buffer, cannot see: the
    result is bytes-equal to the ``np.median`` oracle's.
    """
    theta, _ = selection.shape
    if beta < 1:
        raise ResilienceConditionError(f"trimming needs beta >= 1, got {beta}")
    if beta >= theta:
        return selection.mean(axis=0)
    half = theta // 2
    if theta % 2:
        deviation = np.partition(selection, half, axis=0)
        median = deviation[half].copy()
    else:
        deviation = np.partition(selection, [half - 1, half], axis=0)
        median = deviation[half - 1:half + 1].mean(axis=0)
    np.subtract(selection, median, out=deviation)
    np.abs(deviation, out=deviation)
    return _mean_of_closest(selection, deviation, beta)


def mean_around_center(matrix: np.ndarray, center: np.ndarray, keep: int) -> np.ndarray:
    """Per-coordinate mean of the *keep* values closest to *center*.

    Phocas's rule (centre = the coordinate-wise trimmed mean); the median
    centre is :func:`trimmed_mean_around_median`.
    """
    n = matrix.shape[0]
    if keep >= n:
        return matrix.mean(axis=0)
    return _mean_of_closest(matrix, np.abs(matrix - center[None, :]), keep)


def _mean_of_closest(matrix: np.ndarray, deviation: np.ndarray, keep: int) -> np.ndarray:
    """Per-coordinate mean of the *keep* rows of *matrix* with least *deviation*."""
    # simlint: disable=SIM301 boundary ties are resolved per-coordinate by
    # introselect pivot order; the arrangement is pinned bit-for-bit by the
    # frozen oracles oracle_trimmed_mean_around_median and oracle_meamed in
    # tests/test_core_kernels.py.
    idx = np.argpartition(deviation, keep - 1, axis=0)[:keep, :]
    return np.take_along_axis(matrix, idx, axis=0).mean(axis=0)


def fill_non_finite_extremes(matrix: np.ndarray) -> np.ndarray:
    """Replace non-finite entries by *per-coordinate* extreme finite outliers.

    NaN and +Inf become one more than the largest finite value *of their own
    coordinate*, -Inf one less than that coordinate's smallest, so
    coordinate-wise order statistics (median, trimmed mean,
    mean-around-median) push them to the trimmed tails at the coordinate's
    own scale.  Substituting the *global* matrix extremes instead would turn
    a NaN in a small-magnitude coordinate into a cross-scale outlier: the
    moment ``keep`` exceeds that coordinate's finite count, MeaMed's
    :func:`trimmed_mean_around_median` averages the substituted value in and the
    output is dragged towards an unrelated coordinate's range.  Coordinates
    with no finite entries at all fall back to ``+1`` / ``-1``.  Returns the
    input unchanged (no copy) when it is already finite.
    """
    finite = np.isfinite(matrix)
    if finite.all():
        return matrix
    any_finite = finite.any(axis=0)
    bad = ~finite
    # Single working copy: every bad entry gets overwritten below, so the same
    # buffer doubles as the masked operand for the per-coordinate extremes
    # (bad -> -inf for the max, bad -> +inf for the min) before the final fill.
    clean = matrix.astype(np.float64, copy=True)
    clean[bad] = -np.inf
    hi_base = clean.max(axis=0)
    clean[bad] = np.inf
    lo_base = clean.min(axis=0)
    hi = np.where(any_finite, hi_base + 1.0, 1.0)
    lo = np.where(any_finite, lo_base - 1.0, -1.0)
    lo_mask = np.isneginf(matrix)
    hi_mask = bad & ~lo_mask  # NaN and +Inf
    clean[hi_mask] = np.broadcast_to(hi, clean.shape)[hi_mask]
    clean[lo_mask] = np.broadcast_to(lo, clean.shape)[lo_mask]
    return clean


def multi_krum_select(scores: np.ndarray, m: int) -> np.ndarray:
    """Indices of the ``m`` smallest scores, ordered by ``(score, index)``.

    The stable argsort makes tie-breaking explicit: equal scores are kept
    in ascending index order, both for membership (which rows make the
    cut when ties straddle the selection boundary) and for the order of
    the returned indices.  The previous ``np.argpartition`` selection
    left both to the partition's internal arrangement, which is
    deterministic for a fixed NumPy build but unspecified — a silent
    reordering hazard for the vectorised selection paths.
    """
    n = scores.shape[0]
    if not 1 <= m <= n:
        raise ResilienceConditionError(
            f"Multi-Krum selection needs 1 <= m <= n, got m={m} for n={n}"
        )
    return np.argsort(scores, kind="stable")[:m]


def bulyan_select(distances: np.ndarray, f: int, theta: int) -> np.ndarray:
    """Iterated-Krum extraction of ``theta`` rows (Bulyan phase 1), update-only.

    Matches the reference per-round rescan (``bulyan._bulyan_selection``)
    winner for winner without ever rescanning the remaining submatrix.  In
    round ``r`` (``r`` rows extracted so far) the Krum score of a remaining row
    is the sum of its ``n - f - 2`` smallest remaining off-diagonal distances:
    its sum over *all* remaining entries minus its ``e = max(f + 1 - r, 0)``
    largest remaining ones.  Those are the first ``e`` still-remaining entries
    of the row's **tail table** — its ``f + 1`` largest off-diagonal distances
    in the full matrix, descending — because at most ``r`` of the ``f + 1``
    have been extracted and no entry outside the table exceeds one inside it:

        ``score_r(i) = rowsum_r(i) - sum(first e remaining tail entries of i)``

    with ``rowsum`` maintained by subtracting each winner's column ("the
    next iterations only update the scores"): one argpartition and one sum
    per row, then O(n f) for each of the first ``f + 1`` rounds (on tables
    stored rank-major, ``(f + 1, n)``) and O(n) for every later one
    (``e = 0``) — O(n^2 + theta n) in all.  Tables and row sums are built
    from row blocks of a small scratch, not a capped copy of the matrix: no
    ``n x n`` temporary (faulted in afresh every step), and *distances* is
    never written, so it may be read-only.

    The running differences round differently from the reference's fresh
    partition sums, so every ``argmin`` is guarded by a rigorous drift bound.
    A round whose minimum is not provably unique — an exact tie (colluding or
    duplicate rows, the final two-row round, rows saturated by :data:`HUGE`
    distances to quarantined ones) or a gap inside the bound — is re-decided
    by the reference reduction itself on the rows inside the bound only: they
    score the same bits as in a full pass, every other row is provably larger.
    """
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
    # Capped as in neighbour_sum_scores, by row blocks (rows reduce alone).  The
    # diagonal is kept out of the tail tables (-1 sorts below every distance).
    tail_cols = np.empty((n, tail), dtype=np.intp)
    tail_vals = np.empty((n, tail))
    row_sums = np.empty(n)
    for lo, hi, block, diagonal in _row_blocks(n):
        np.minimum(distances[lo:hi], HUGE, out=block)
        block[diagonal] = -1.0
        # simlint: disable=SIM301 only the tail *values* enter a score, and
        # every valid top-(f+1) set of a row holds the same values whichever
        # tied column the partition kept; each winner is guarded anyway.
        cols = np.argpartition(block, n - tail, axis=1)[:, n - tail:]
        tail_cols[lo:hi] = cols
        tail_vals[lo:hi] = np.take_along_axis(block, cols, axis=1)
        block[diagonal] = 0.0
        row_sums[lo:hi] = block.sum(axis=1)
    narrow = np.min_scalar_type(tail)  # dtype of the alive counts
    order = np.argsort(-tail_vals, axis=1, kind="stable")
    tail_cols = np.ascontiguousarray(np.take_along_axis(tail_cols, order, axis=1).T)
    tail_vals = np.ascontiguousarray(np.take_along_axis(tail_vals, order, axis=1).T)
    # Drift bound per row: every term is non-negative, so all intermediate
    # magnitudes stay below the initial row sum S0 and the classic summation
    # bound gives |computed - exact| <= operations * eps * S0, with at most
    # 2n + 2 here and under n in the reference's fresh sums.  Rounds track lower
    # ends (score - bound): one above the least upper end is provably larger.
    err_bound = 4.0 * n * np.finfo(np.float64).eps * row_sums
    low = row_sums - err_bound
    # An entry above HUGE is in its row's tail (or NaNs fill it), so when no
    # rank-0 entry reaches HUGE, capping a column changes nothing.
    capped = not (tail_vals[0] < HUGE).all()
    active = np.ones(n, dtype=bool)
    selected = np.empty(theta, dtype=np.intp)
    for rounds in range(theta):
        excluded = tail - rounds
        lower = low  # +inf on extracted rows
        if excluded > 0:
            alive = active[tail_cols]
            largest = alive & (np.cumsum(alive, axis=0, dtype=narrow) <= excluded)
            lower = low - np.add.reduce(tail_vals, axis=0, where=largest)
        winner = int(lower.argmin())
        near = lower <= lower[winner] + 2.0 * err_bound[winner]
        if np.count_nonzero(near) > 1:
            # Not provably the reference winner: score the rows inside the
            # bound exactly as the reference loop does, first minimum wins.
            near = np.flatnonzero(near)
            remaining = np.flatnonzero(active)
            block = np.take(distances[near], remaining, axis=1)
            block[np.arange(near.size), np.searchsorted(remaining, near)] = np.inf
            exact = _partition_sum(block, min(n_neighbors, remaining.size - 1))
            winner = int(near[int(np.argmin(exact))])
        selected[rounds] = winner
        active[winner] = False
        column = distances[:, winner]
        low -= np.minimum(column, HUGE) if capped else column
        low[winner] = np.inf
    return selected


def combination_table(n: int, k: int) -> np.ndarray:
    """All ``C(n, k)`` size-``k`` subsets of ``range(n)``, lexicographically.

    Combinadic unranking vectorised over the subset axis: the binomial
    table gives, for every candidate value ``v`` and column, how many
    combinations start with that value, and a single pass over the ``n``
    candidate values assigns each rank its next element.  Equivalent to
    ``np.array(list(itertools.combinations(range(n), k)))`` without the
    per-subset tuple churn.
    """
    if not 0 <= k <= n:
        raise ResilienceConditionError(
            f"combination table needs 0 <= k <= n, got k={k} for n={n}"
        )
    binom = np.zeros((n + 1, k + 1), dtype=np.int64)
    binom[:, 0] = 1
    for row in range(1, n + 1):
        binom[row, 1:] = binom[row - 1, :-1] + binom[row - 1, 1:]
    total = int(binom[n, k])
    out = np.empty((total, k), dtype=np.intp)
    if k == 0 or total == 0:
        return out
    remaining_rank = np.arange(total, dtype=np.int64)
    column = np.zeros(total, dtype=np.int64)
    for value in range(n):
        open_rows = column < k
        # Ranks whose next element is *value*: those whose remaining rank
        # falls inside the C(n - 1 - value, k - 1 - column) block of
        # combinations that pick it; everyone else skips the block.  Rows
        # already complete (column == k) index the table at -1; they are
        # masked out by open_rows either way.
        block = binom[n - 1 - value, k - 1 - column]
        take = open_rows & (remaining_rank < block)
        rows = np.nonzero(take)[0]
        out[rows, column[rows]] = value
        column[rows] += 1
        skip = open_rows & ~take
        remaining_rank[skip] -= block[skip]
    return out


#: Largest subset count the vectorised Brute scan will materialise; beyond
#: this the caller should fall back to the streaming per-subset loop.
BRUTE_VECTOR_SUBSET_LIMIT = 2_000_000

#: Pairwise-distance entries per diameter chunk (bounds peak memory of the
#: vectorised Brute scan to a few tens of MB regardless of C(n, n - f)).
_BRUTE_CHUNK_ENTRIES = 4_000_000


def brute_select(distances: np.ndarray, subset_size: int) -> tuple:
    """Minimum-diameter subset scan, vectorised over the subset axis.

    Returns ``(indices, diameter)`` for the lexicographically-first subset
    of *subset_size* rows whose largest internal pairwise distance is
    minimal — identical to the reference per-subset loop's strictly-less
    update rule, because diameters are exact ``max`` reductions (no
    accumulated rounding) and ``np.argmin`` returns the first minimum.
    Subsets are enumerated by :func:`combination_table` and their
    diameters reduced in chunks so peak memory stays bounded.
    """
    n = distances.shape[0]
    if not 1 <= subset_size <= n:
        raise ResilienceConditionError(
            f"Brute selection needs 1 <= subset_size <= n, got {subset_size} for n={n}"
        )
    subsets = combination_table(n, subset_size)
    if subset_size == 1:
        return subsets[0], 0.0
    ii, jj = np.triu_indices(subset_size, k=1)
    pairs = ii.size
    chunk = max(1, _BRUTE_CHUNK_ENTRIES // pairs)
    best_index = 0
    best_diameter = np.inf
    for lo in range(0, subsets.shape[0], chunk):
        rows = subsets[lo:lo + chunk]
        diameters = distances[rows[:, ii], rows[:, jj]].max(axis=1)
        candidate = int(np.argmin(diameters))
        if diameters[candidate] < best_diameter:
            best_diameter = float(diameters[candidate])
            best_index = lo + candidate
    return subsets[best_index], best_diameter


__all__ = [
    "HUGE",
    "SELECTION_CLOCK",
    "SelectionClock",
    "BRUTE_VECTOR_SUBSET_LIMIT",
    "pairwise_squared_distances",
    "neighbour_sum_scores",
    "trimmed_mean_around_median",
    "mean_around_center",
    "fill_non_finite_extremes",
    "multi_krum_select",
    "bulyan_select",
    "brute_select",
    "combination_table",
]
