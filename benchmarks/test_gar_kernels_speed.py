"""GAR kernel microbenchmark: vectorised selection vs the loops, and trimming.

PR 8 replaced the per-candidate Python selection loops of Bulyan and Brute
with batched kernels (:func:`repro.core.kernels.bulyan_select` /
:func:`repro.core.kernels.brute_select`); the loop implementations are
retained as oracles (``_bulyan_selection`` is also ``NaiveBulyan``'s path,
``Brute._select_loop`` the only scan above the vector limit).  The
end-to-end win is the repository benchmark's ``bulyan_attack_600``; this
file times the *selection stage alone* — distances precomputed, no trainer,
no trimming — at n ∈ {100, 1000} so a kernel-level regression is
attributable without a whole run, and once more at ``bulyan_attack_600``'s
own shape against the frozen whole-matrix kernel of
``tests/selection_reference.py`` (the row-block build).  Bulyan's trimming phase,
:func:`repro.core.kernels.trimmed_mean_around_median`, is timed on its own
at the paper's (theta, d) = (11, 99,370) against the frozen ``np.median``
oracle of ``tests/test_core_kernels.py``, the end-to-end win being
``paper_bulyan_lossy``'s.

All assertions are same-machine wall-clock ratios, never raw seconds, with
the winner sequences asserted identical so the comparison stays honest.
Every gate reads the median of adjacent, order-alternated pair ratios
(``benchmarks/conftest.py::alternated_pairs``), so host load alone cannot
fail it: nine pairs, or three (five for Brute) where one arm is a
seconds-long loop that runs once a pair, and supplies winners each time.
"""

from __future__ import annotations

import timeit

import numpy as np

from benchmarks.conftest import alternated_pairs
from repro.core.brute import Brute
from repro.core.bulyan import _bulyan_selection
from repro.core.kernels import brute_select, bulyan_select, trimmed_mean_around_median
from tests.selection_reference import reference_bulyan_select
from tests.test_core_kernels import oracle_trimmed_mean_around_median
from tests.test_selection_kernels import colluding_matrix

#: f as a twentieth of n: the paper's deployments keep f small relative to
#: the fleet, which is exactly the regime where the loop's theta ~ n rounds
#: of submatrix rescans hurt (theta = n - 2f stays close to n).
BULYAN_CASES = {100: 5, 1000: 50}


def _bulyan_arms(n: int):
    f = BULYAN_CASES[n]
    theta = n - 2 * f
    rng = np.random.default_rng(n)
    matrix = rng.standard_normal((n, 16))
    # Selection-only: both arms consume the same precomputed matrix, so the
    # O(n^2 d) distance pass is excluded from every timing below.
    from repro.core.kernels import pairwise_squared_distances

    distances = pairwise_squared_distances(matrix)
    loop = lambda: _bulyan_selection(matrix, f, theta, distances=distances)  # noqa: E731
    vectorised = lambda: bulyan_select(distances, f, theta)  # noqa: E731
    return loop, vectorised


def _timed_once(func, results):
    """A pair arm: seconds of one *func* call, whose result joins *results*."""
    def arm():
        start = timeit.default_timer()
        results.append(func())
        return timeit.default_timer() - start
    return arm


def _best_of_three(func):
    """A pair arm: seconds of the best of three adjacent *func* calls."""
    return lambda: min(timeit.repeat(func, number=1, repeat=3))


def test_bulyan_selection_kernel_is_at_least_30x_at_n_1000():
    loop, vectorised = _bulyan_arms(1000)
    # The seconds-long loop arm runs once a pair: each timed run also
    # supplies winners the kernel is checked against.
    winners = []
    timings = alternated_pairs(
        _timed_once(loop, winners), _best_of_three(vectorised), pairs=3
    )
    expected = vectorised()
    for found in winners:
        np.testing.assert_array_equal(expected, found)
    speedup = float(np.median([loop_s / vec_s for loop_s, vec_s in timings]))
    print(f"\nbulyan selection n=1000: pairs (loop s, vectorised s) {timings}, "
          f"median pair ratio {speedup:.1f}x")
    assert speedup >= 30.0, (
        f"update-only Bulyan selection is only {speedup:.2f}x the loop at "
        "n=1000 (median of the pair ratios); the tail-table kernel measured "
        "~65x when it landed"
    )


def test_bulyan_selection_kernel_never_loses_at_n_100():
    """At the small end the kernel must at least break even (with slack)."""
    loop, vectorised = _bulyan_arms(100)
    np.testing.assert_array_equal(vectorised(), loop())
    timings = alternated_pairs(
        lambda: timeit.timeit(loop, number=10), lambda: timeit.timeit(vectorised, number=10)
    )
    slowdown = float(np.median([vec_s / loop_s for loop_s, vec_s in timings]))
    print(f"\nbulyan selection n=100: median pair time ratio vectorised / loop "
          f"{slowdown:.2f}")
    assert slowdown <= 1.2, timings


def test_bulyan_selection_kernel_is_at_least_1_4x_the_whole_matrix_kernel():
    """Selection alone at ``bulyan_attack_600``'s shape: n = 600, f = 20, d = 55.

    The frozen kernel copies the capped matrix and argpartitions all of it
    (two ``n x n`` buffers a call), keeps its tail tables row-major, guards
    every round through ``np.flatnonzero`` and gathers its re-decisions with
    ``np.ix_``; the row-block kernel does none of that.  When it landed it
    measured 1.5-1.6x inside a warmed test process and 1.8-1.9x in a fresh
    one, where the frozen kernel's buffers are also faulted in every call.
    """
    n, f = 600, 20
    from repro.core.kernels import pairwise_squared_distances

    distances = pairwise_squared_distances(
        colluding_matrix(np.random.default_rng(600), n, f, d=55)
    )
    kernel = lambda: bulyan_select(distances, f, n - 2 * f)  # noqa: E731
    frozen = lambda: reference_bulyan_select(distances, f, n - 2 * f)  # noqa: E731
    np.testing.assert_array_equal(kernel(), frozen())
    timings = alternated_pairs(
        lambda: timeit.timeit(frozen, number=3), lambda: timeit.timeit(kernel, number=3)
    )
    speedup = float(np.median([frozen_s / kernel_s for frozen_s, kernel_s in timings]))
    frozen_s, kernel_s = (min(arm) for arm in zip(*timings))
    print(f"\nbulyan selection (600, f=20, d=55): whole-matrix {frozen_s/3*1e3:.1f}ms, "
          f"row blocks {kernel_s/3*1e3:.1f}ms, median pair ratio {speedup:.2f}x")
    assert speedup >= 1.4, (
        f"row-block Bulyan selection is only {speedup:.2f}x the whole-matrix kernel "
        f"(median of the pair ratios; pairs {timings})"
    )


def test_trimming_kernel_is_at_least_1_4x_the_median_oracle_at_paper_scale():
    """Bulyan's coordinate phase at the paper's 19-worker, f = 4 deployment.

    theta = 11 selected rows, beta = 3 kept per coordinate, d = 99,370 (the
    MLP).  The frozen oracle is the ``np.median`` + ``argpartition`` spelling
    the kernel replaced; ``np.median``'s NaN-sentinel partition is most of
    the gap (1.65-1.82x when the middle-kth kernel landed).
    """
    selection = np.random.default_rng(11).standard_normal((11, 99_370))
    kernel = lambda: trimmed_mean_around_median(selection, 3)  # noqa: E731
    oracle = lambda: oracle_trimmed_mean_around_median(selection, 3)  # noqa: E731
    assert kernel().tobytes() == oracle().tobytes()
    # Each arm's sample is its best of three adjacent calls: a burst of host
    # load inside one call adds the same seconds to either arm, which would
    # pull a ratio of single calls towards 1.
    timings = alternated_pairs(
        lambda: min(timeit.repeat(oracle, number=1, repeat=3)),
        lambda: min(timeit.repeat(kernel, number=1, repeat=3)),
    )
    speedup = float(np.median([oracle_s / kernel_s for oracle_s, kernel_s in timings]))
    oracle_s, kernel_s = (min(arm) for arm in zip(*timings))
    print(f"\ntrimming (11, 99370): np.median oracle {oracle_s*1e3:.1f}ms, "
          f"kernel {kernel_s*1e3:.1f}ms, median pair ratio {speedup:.2f}x")
    assert speedup >= 1.4, (
        f"middle-kth trimming kernel is only {speedup:.2f}x the np.median oracle "
        f"(median of the pair ratios; pairs {timings})"
    )


def test_brute_selection_kernel_is_at_least_3x_on_a_wide_scan():
    """The combinadic scan vs the per-subset loop at C(18, 11) subsets.

    Brute's win scales with the *subset count* (each loop iteration is one
    Python-level fancy-index + max), so the feasible showcase is a wide
    scan rather than a large n: C(18, 11) = 31 824 subsets is seconds for
    the loop and milliseconds for one chunked gather.  At n ∈ {100, 1000}
    the rule itself is only defined for small f (C(n, n - f) explodes
    otherwise), where both paths are sub-millisecond — nothing to gate.
    """
    n, f = 18, 7
    subset_size = n - f
    rng = np.random.default_rng(7)
    from repro.core.kernels import pairwise_squared_distances

    distances = pairwise_squared_distances(rng.standard_normal((n, 16)))
    loop = lambda: Brute._select_loop(distances, n, subset_size)  # noqa: E731
    vectorised = lambda: brute_select(distances, subset_size)[0]  # noqa: E731
    winners = []
    timings = alternated_pairs(
        _timed_once(loop, winners), _best_of_three(vectorised), pairs=5
    )
    expected = vectorised()
    for found in winners:
        np.testing.assert_array_equal(expected, found)
    speedup = float(np.median([loop_s / vec_s for loop_s, vec_s in timings]))
    print(f"\nbrute selection C(18,11): pairs (loop s, vectorised s) {timings}, "
          f"median pair ratio {speedup:.1f}x")
    assert speedup >= 3.0, (
        f"vectorised Brute scan is only {speedup:.2f}x the per-subset loop "
        f"(median of the pair ratios; pairs {timings})"
    )
