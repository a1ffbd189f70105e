"""Row-block distance and selection kernels vs the frozen whole-matrix ones.

``pairwise_squared_distances`` finishes its distances inside the Gram
product's buffer one row block at a time, and ``bulyan_select`` /
``neighbour_sum_scores`` build their tail tables, row sums and scores from
row blocks of a small scratch instead of a capped copy of the matrix.  Rows
are reduced independently, so block boundaries must not move a bit: the
distances are ``tobytes()``-equal to ``tests/selection_reference.py``'s
frozen kernel, the scores to the seed's Krum oracle, and the winners equal
to the frozen selection and to the per-round rescan ``_bulyan_selection``.

The property suites of ``test_selection_kernels.py`` stop at n = 16-24,
inside one block; here ``n`` runs from 1 to three full blocks plus one row,
at the module's block size and at drawn small ones.  The memory contract —
no ``n x n`` temporary beyond the distance matrix, a read-only input
accepted — is pinned with ``tracemalloc``, which is deterministic on any
host where a wall-clock gate is not.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.bulyan import _bulyan_selection
from repro.core.kernels import (
    brute_select,
    bulyan_select,
    neighbour_sum_scores,
    pairwise_squared_distances,
)
from tests.selection_reference import (
    reference_bulyan_select,
    reference_pairwise_squared_distances,
)
from tests.test_core_kernels import assert_bytes_equal, oracle_krum_scores
from tests.test_selection_kernels import colluding_matrix

#: n with three full row blocks plus one row at the module's block size
#: (32_768 // 313 = 104 rows a block).
THREE_BLOCKS_PLUS_ONE = 313
assert kernels._ROW_BLOCK_ENTRIES // THREE_BLOCKS_PLUS_ONE * 3 + 1 == THREE_BLOCKS_PLUS_ONE


def block_edges(entries: int) -> list:
    """The ``n`` at which a block count changes under *entries* per block."""
    return sorted({
        n for n in range(1, THREE_BLOCKS_PLUS_ONE + 1)
        if n % max(1, min(n, entries // n)) in (0, 1)
    })


@st.composite
def block_matrices(draw, max_n=THREE_BLOCKS_PLUS_ONE):
    """``(n, d)`` matrices with the hazards a block boundary could expose."""
    edges = [n for n in block_edges(kernels._ROW_BLOCK_ENTRIES) if n <= max_n]
    n = draw(st.one_of(st.sampled_from(edges), st.integers(1, max_n)))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    kind = draw(st.sampled_from(["normal", "integer", "huge", "colluding", "grid"]))
    if kind == "integer":
        return rng.integers(-3, 4, size=(n, d))
    if kind == "huge":
        matrix = rng.standard_normal((n, d)) * 1e150
    elif kind == "colluding":
        matrix = colluding_matrix(rng, n, min(n - 1, draw(st.integers(1, 21))), d=d)
    elif kind == "grid":
        matrix = np.round(rng.standard_normal((n, d)) * 2.0) / 4.0
    else:
        matrix = rng.standard_normal((n, d))
    num_laced = draw(st.integers(0, 3))
    if num_laced:
        rows = rng.choice(n, size=min(num_laced, n), replace=False)
        matrix[rows, 0] = rng.choice([np.nan, np.inf, -np.inf], size=rows.size)
    return matrix


def assert_selection_matches_references(matrix, f):
    n = matrix.shape[0]
    if n - f - 2 < 1:
        return
    distances = pairwise_squared_distances(matrix)
    for theta in sorted({1, min(n, f + 2), max(1, n - 2 * f)}):
        selected = bulyan_select(distances, f, theta)
        np.testing.assert_array_equal(selected, reference_bulyan_select(distances, f, theta))
        np.testing.assert_array_equal(
            selected, _bulyan_selection(matrix, f, theta, distances=distances)
        )


@settings(max_examples=80, deadline=None)
@given(matrix=block_matrices())
def test_distances_and_scores_are_bytes_equal_across_block_edges(matrix):
    distances = pairwise_squared_distances(matrix)
    assert_bytes_equal(distances, reference_pairwise_squared_distances(matrix))
    n = matrix.shape[0]
    if n >= 2:
        k = max(1, (n - 2) // 2)
        assert_bytes_equal(
            neighbour_sum_scores(distances, k), oracle_krum_scores(distances, n - k - 2)
        )


@settings(max_examples=12, deadline=None)
@given(matrix=block_matrices(), f=st.integers(0, 20))
def test_selection_matches_both_references_at_the_module_block_size(matrix, f):
    assert_selection_matches_references(matrix, f)


@pytest.mark.parametrize("n", [182, 257, THREE_BLOCKS_PLUS_ONE])  # 2, 3 and 4 blocks
def test_selection_matches_both_references_on_multi_block_colluding_fleets(n):
    assert_selection_matches_references(
        colluding_matrix(np.random.default_rng(n), n, 20, d=55), 20
    )


@settings(max_examples=80, deadline=None)
@given(
    matrix=block_matrices(max_n=40),
    f=st.integers(0, 6),
    entries=st.integers(1, 400),
)
def test_selection_matches_both_references_at_small_block_sizes(matrix, f, entries):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_ROW_BLOCK_ENTRIES", entries)
        assert_bytes_equal(
            pairwise_squared_distances(matrix), reference_pairwise_squared_distances(matrix)
        )
        assert_selection_matches_references(matrix, f)


# ------------------------------------------------------------ memory contract
def traced_peak(kernel, *args) -> int:
    """Bytes allocated at the peak of ``kernel(*args)``, beyond what existed."""
    tracemalloc.start()
    try:
        kernel(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_n_by_n_temporary_beyond_the_distance_matrix():
    n, f = 600, 20
    matrix = colluding_matrix(np.random.default_rng(600), n, f, d=55)
    distances = pairwise_squared_distances(matrix)
    distances.setflags(write=False)
    square = n * n * 8
    assert traced_peak(pairwise_squared_distances, matrix) <= 1.25 * square
    assert traced_peak(bulyan_select, distances, f, n - 2 * f) <= 0.5 * square
    assert traced_peak(neighbour_sum_scores, distances, n - f - 2) <= 0.5 * square


def test_selection_kernels_accept_a_read_only_matrix():
    matrix = colluding_matrix(np.random.default_rng(9), 40, 5, d=7)
    distances = pairwise_squared_distances(matrix)
    frozen = distances.copy()
    distances.setflags(write=False)
    np.testing.assert_array_equal(
        bulyan_select(distances, 5, 30), reference_bulyan_select(frozen, 5, 30)
    )
    assert_bytes_equal(neighbour_sum_scores(distances, 33), oracle_krum_scores(frozen, 5))
    small = pairwise_squared_distances(matrix[:9])
    small.setflags(write=False)
    np.testing.assert_array_equal(brute_select(small, 7)[0], brute_select(small.copy(), 7)[0])
    assert_bytes_equal(distances, frozen)
