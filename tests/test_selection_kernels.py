"""Vectorised selection kernels vs the retained per-candidate references.

PR 8 replaced the Python selection loops of Multi-Krum, Bulyan and Brute
with batched kernels (``multi_krum_select`` / ``bulyan_select`` /
``brute_select``).  The loop implementations are retained —
``_bulyan_selection`` as ``NaiveBulyan``'s path, ``Brute._select_loop`` as
the only scan above ``BRUTE_VECTOR_SUBSET_LIMIT`` — and double as oracles
here: the property suite drives both through adversarial shapes — exact ties from duplicate
rows and integer-valued coordinates (integer squared distances make every
partial sum exact in any summation order, so ties are provable ties),
quarantined non-finite rows saturating at ``HUGE``, the minimum-``n``
resilience edges, and ``f = 0`` — asserting winner-for-winner identical
selections.  The Multi-Krum stable tie-break fix is pinned by a frozen
construction whose boundary tie the old ``argpartition`` selection left
to the partition's internal arrangement.

``bulyan_select`` is update-only (tail tables + running row sums, see its
docstring): a second grid walks both sides of its ``e = 0`` boundary on the
attack library's colluding shape, and three tests pin its exact re-decision
— how often it fires, that it scores only the rows inside the drift bound,
and that a row scores the same bits alone as in the reference's full pass.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.brute import Brute
from repro.core.bulyan import Bulyan, _bulyan_selection
from repro.core.kernels import (
    brute_select,
    bulyan_select,
    combination_table,
    multi_krum_select,
    neighbour_sum_scores,
    pairwise_squared_distances,
    trimmed_mean_around_median,
)
from repro.core.krum import MultiKrum
from repro.exceptions import AggregationError, ResilienceConditionError
from tests.test_core_kernels import assert_bytes_equal, oracle_bulyan


@st.composite
def selection_matrices(draw, min_n=3, max_n=16):
    """(n, d) matrices biased towards tie-heavy and quarantined shapes."""
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    kind = draw(st.sampled_from(["normal", "integer", "duplicates"]))
    rng = np.random.default_rng(seed)
    if kind == "normal":
        matrix = rng.standard_normal((n, d))
    elif kind == "integer":
        # 0/1/2-valued coordinates: squared distances are small integers,
        # exactly representable, so equal scores are exact ties.
        matrix = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    else:
        base = rng.integers(0, 2, size=(max(1, n // 3), d)).astype(np.float64)
        matrix = base[rng.integers(0, base.shape[0], size=n)]
    num_laced = draw(st.integers(0, 3))
    if num_laced:
        filler = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        for row in rng.choice(n, size=min(num_laced, n), replace=False):
            matrix[row] = filler
    return matrix


# --------------------------------------------------------------------- Bulyan
@settings(max_examples=80, deadline=None)
@given(matrix=selection_matrices(min_n=3, max_n=16), f=st.integers(0, 3))
def test_bulyan_select_matches_loop_reference(matrix, f):
    n = matrix.shape[0]
    if n - f - 2 < 1:
        return
    theta = n - 2 * f
    if theta < 1:
        return
    distances = pairwise_squared_distances(matrix)
    loop = _bulyan_selection(matrix, f, theta, distances=distances)
    vectorised = bulyan_select(distances, f, theta)
    np.testing.assert_array_equal(vectorised, loop)


def test_bulyan_select_all_duplicate_rows_breaks_every_tie_like_the_loop():
    # All-zero gradients: every distance is exactly 0, every round of the
    # extraction is an exact tie, so the whole winner sequence is decided
    # by tie-breaking alone.
    matrix = np.zeros((9, 3))
    distances = pairwise_squared_distances(matrix)
    theta = 9 - 2 * 1
    loop = _bulyan_selection(matrix, 1, theta, distances=distances)
    vectorised = bulyan_select(distances, 1, theta)
    np.testing.assert_array_equal(vectorised, loop)
    np.testing.assert_array_equal(vectorised, np.arange(theta))


def test_bulyan_select_minimum_n_edge():
    # n = 4f + 3 exactly (the rule's resilience floor) for each small f.
    for f in (0, 1, 2):
        n = 4 * f + 3
        rng = np.random.default_rng(f)
        matrix = rng.standard_normal((n, 4))
        distances = pairwise_squared_distances(matrix)
        theta = n - 2 * f
        np.testing.assert_array_equal(
            bulyan_select(distances, f, theta),
            _bulyan_selection(matrix, f, theta, distances=distances),
        )


def colluding_matrix(rng, n, num_byzantine, d=6):
    """Honest Gaussian rows behind *num_byzantine* identical sign-flip rows.

    The attack library's shape (``SignFlipAttack`` tiles one crafted row), and
    the benchmark's ``bulyan_attack_600``: the copies tie exactly, every round.
    """
    matrix = rng.standard_normal((n, d))
    matrix[:num_byzantine] = -matrix[num_byzantine:].mean(axis=0)
    return matrix


@st.composite
def tail_table_cases(draw):
    """``(matrix, f, theta)`` with theta on both sides of the tail-table rounds."""
    f = draw(st.integers(0, 5))
    n = draw(st.one_of(st.just(4 * f + 3), st.integers(4 * f + 3, 4 * f + 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    kind = draw(st.sampled_from(["colluding", "grid", "laced", "normal"]))
    if kind == "colluding":
        matrix = colluding_matrix(rng, n, draw(st.integers(2, max(2, f))))
    elif kind == "grid":
        # Rounded to a coarse grid: squared distances are exact multiples of
        # 1/16, so equal scores are exact ties in any summation order.
        matrix = np.round(rng.standard_normal((n, 3)) * 2.0) / 4.0
    else:
        matrix = rng.standard_normal((n, 5))
    if kind == "laced":
        rows = rng.choice(n, size=draw(st.integers(1, max(1, f))), replace=False)
        matrix[rows] = rng.choice([np.nan, np.inf, -np.inf], size=(rows.size, 1))
    # 1, the last tail-table round, the first plain-row-sum round (e = 0) and
    # the rule's own theta, which is n itself when f = 0.
    theta = draw(st.sampled_from([1, f + 1, f + 2, n - 2 * f]))
    return matrix, f, theta


@settings(max_examples=120, deadline=None)
@given(case=tail_table_cases())
def test_bulyan_select_tail_tables_match_loop_reference(case):
    matrix, f, theta = case
    distances = pairwise_squared_distances(matrix)
    np.testing.assert_array_equal(
        bulyan_select(distances, f, theta),
        _bulyan_selection(matrix, f, theta, distances=distances),
    )


def select_counting_redecisions(monkeypatch, distances, f, theta):
    """``bulyan_select``'s winners and the row count of every block it re-scored."""
    blocks = []
    partition_sum = kernels._partition_sum

    def counting(block, num_neighbours):
        blocks.append(block.shape[0])
        return partition_sum(block, num_neighbours)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_partition_sum", counting)
        selected = bulyan_select(distances, f, theta)
    return selected, blocks


def test_exact_redecision_never_fires_on_generic_input(monkeypatch):
    n, f = 200, 10
    matrix = np.random.default_rng(200).standard_normal((n, 16))
    distances = pairwise_squared_distances(matrix)
    selected, blocks = select_counting_redecisions(monkeypatch, distances, f, n - 2 * f)
    assert blocks == []
    np.testing.assert_array_equal(
        selected, _bulyan_selection(matrix, f, n - 2 * f, distances=distances)
    )


def test_exact_redecision_scores_only_the_tied_colluding_rows(monkeypatch):
    n, f = 200, 10
    matrix = colluding_matrix(np.random.default_rng(201), n, f, d=16)
    distances = pairwise_squared_distances(matrix)
    selected, blocks = select_counting_redecisions(monkeypatch, distances, f, n - 2 * f)
    # One re-decision per round in which two or more copies are still tied —
    # at most f - 1 rounds — over the tied copies alone, never the pool.
    assert 1 <= len(blocks) <= f - 1
    assert max(blocks) <= f
    np.testing.assert_array_equal(
        selected, _bulyan_selection(matrix, f, n - 2 * f, distances=distances)
    )


@settings(max_examples=60, deadline=None)
@given(matrix=selection_matrices(min_n=4, max_n=24), seed=st.integers(0, 2**31))
def test_row_subset_scores_are_bit_identical_to_the_full_pass(matrix, seed):
    """What lets ``bulyan_select`` re-score only the rows inside its bound."""
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    distances = pairwise_squared_distances(matrix)
    remaining = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    positions = np.sort(rng.choice(
        remaining.size, size=int(rng.integers(1, remaining.size + 1)), replace=False
    ))
    num_neighbours = int(rng.integers(1, remaining.size))
    full = neighbour_sum_scores(distances[np.ix_(remaining, remaining)], num_neighbours)
    block = distances[np.ix_(remaining[positions], remaining)]
    block[np.arange(positions.size), positions] = np.inf
    subset = kernels._partition_sum(block, num_neighbours)
    np.testing.assert_array_equal(subset, full[positions])


def test_bulyan_matches_frozen_oracle_at_benchmark_scale():
    # bulyan_attack_600's shape: 600 workers, 20 colluding sign-flip rows,
    # d = 55, against the frozen pre-refactor rescan loop.
    n, f = 600, 20
    matrix = colluding_matrix(np.random.default_rng(600), n, f, d=55)
    expected, expected_selection = oracle_bulyan(matrix, f)
    result = Bulyan(f=f).aggregate_detailed(matrix)
    assert_bytes_equal(result.selected_indices, expected_selection)
    assert_bytes_equal(result.gradient, expected)


def test_bulyan_select_rejects_invalid_shapes():
    distances = pairwise_squared_distances(np.zeros((5, 2)))
    with pytest.raises(ResilienceConditionError):
        bulyan_select(distances, 5, 1)  # n - f - 2 < 1
    with pytest.raises(ResilienceConditionError):
        bulyan_select(distances, 0, 6)  # theta > n


@settings(max_examples=30, deadline=None)
@given(matrix=selection_matrices(min_n=7, max_n=15), f=st.integers(0, 2))
def test_bulyan_rule_matches_the_loop_selection_end_to_end(matrix, f):
    n = matrix.shape[0]
    if n < 4 * f + 3:
        return
    theta = n - 2 * f
    rule = Bulyan(f=f)
    selected = _bulyan_selection(
        matrix, f, theta, distances=pairwise_squared_distances(matrix)
    )
    if not np.isfinite(matrix[selected]).all():
        # More than f quarantined rows: the rule must refuse the selection.
        with pytest.raises(AggregationError):
            rule.aggregate_detailed(matrix)
        return
    result = rule.aggregate_detailed(matrix)
    np.testing.assert_array_equal(result.selected_indices, selected)
    assert_bytes_equal(
        result.gradient,
        trimmed_mean_around_median(matrix[selected], theta - 2 * f),
    )
    if np.isfinite(matrix).all():
        # The seed's frozen Bulyan takes finite input only.
        expected, expected_selection = oracle_bulyan(matrix, f)
        assert_bytes_equal(result.selected_indices, expected_selection)
        assert_bytes_equal(result.gradient, expected)


# ---------------------------------------------------------------------- Brute
@settings(max_examples=60, deadline=None)
@given(matrix=selection_matrices(min_n=3, max_n=10), f=st.integers(0, 3))
def test_brute_select_matches_loop_reference(matrix, f):
    n = matrix.shape[0]
    subset_size = n - f
    if subset_size < 1 or n < 2 * f + 1:
        return
    distances = pairwise_squared_distances(matrix)
    loop = Brute._select_loop(distances, n, subset_size)
    vectorised, diameter = brute_select(distances, subset_size)
    np.testing.assert_array_equal(vectorised, loop)
    if subset_size >= 2:
        expected = distances[np.ix_(loop, loop)].max()
        assert diameter == expected or (np.isinf(diameter) and np.isinf(expected))


def test_brute_select_all_infinite_diameters_keeps_the_first_subset():
    # Every row quarantined: all pairwise distances are +inf, so every
    # subset ties at an infinite diameter and both paths must keep the
    # lexicographically first one (the rule then raises AggregationError
    # on the non-finite selection).
    matrix = np.full((5, 2), np.nan)
    distances = pairwise_squared_distances(matrix)
    loop = Brute._select_loop(distances, 5, 3)
    vectorised, diameter = brute_select(distances, 3)
    np.testing.assert_array_equal(vectorised, loop)
    np.testing.assert_array_equal(vectorised, [0, 1, 2])
    assert np.isinf(diameter)


@settings(max_examples=25, deadline=None)
@given(matrix=selection_matrices(min_n=3, max_n=9), f=st.integers(0, 2))
def test_brute_rule_matches_the_loop_scan_end_to_end(matrix, f):
    n = matrix.shape[0]
    if n < 2 * f + 1:
        return
    rule = Brute(f=f)
    selected = Brute._select_loop(pairwise_squared_distances(matrix), n, n - f)
    if not np.isfinite(matrix[selected]).all():
        with pytest.raises(AggregationError):
            rule.aggregate_detailed(matrix)
        return
    result = rule.aggregate_detailed(matrix)
    np.testing.assert_array_equal(result.selected_indices, selected)
    np.testing.assert_array_equal(result.gradient, matrix[selected].mean(axis=0))


def test_brute_rule_scans_with_the_loop_above_the_vector_limit(monkeypatch):
    # C(n, n - f) alone picks the scan: with the limit forced below it the
    # rule takes ``_select_loop`` and must return what the kernel returns.
    matrix = np.random.default_rng(5).standard_normal((9, 4))
    expected = Brute(f=2).aggregate_detailed(matrix)
    monkeypatch.setattr("repro.core.brute.BRUTE_VECTOR_SUBSET_LIMIT", 35)  # C(9, 7) = 36
    monkeypatch.setattr(
        "repro.core.brute.brute_select",
        lambda *args: pytest.fail("the vectorised scan ran above its limit"),
    )
    result = Brute(f=2).aggregate_detailed(matrix)
    np.testing.assert_array_equal(result.selected_indices, expected.selected_indices)
    np.testing.assert_array_equal(result.gradient, expected.gradient)


# ----------------------------------------------------------------- Multi-Krum
def test_multi_krum_select_orders_ties_by_index():
    scores = np.array([2.0, 1.0, 1.0, 3.0, 1.0])
    np.testing.assert_array_equal(multi_krum_select(scores, 2), [1, 2])
    np.testing.assert_array_equal(multi_krum_select(scores, 3), [1, 2, 4])
    np.testing.assert_array_equal(multi_krum_select(scores, 5), [1, 2, 4, 0, 3])
    with pytest.raises(ResilienceConditionError):
        multi_krum_select(scores, 0)
    with pytest.raises(ResilienceConditionError):
        multi_krum_select(scores, 6)


def test_multi_krum_boundary_tie_regression():
    """Frozen pin of the stable tie-break fix.

    Four copies of the zero vector and three copies of ``e1`` give exact
    integer Krum scores ``[1, 1, 1, 1, 2, 2, 2]`` (f=1: each score sums
    the 4 smallest of 6 integer squared distances).  With ``m = 2`` the
    selection boundary cuts straight through the four-way tie; the stable
    rule must keep the two *lowest* indices, where the previous
    ``argpartition`` selection could legally return any two of the four.
    """
    matrix = np.zeros((7, 3))
    matrix[4:, 0] = 1.0
    result = MultiKrum(f=1, m=2).aggregate_detailed(matrix)
    np.testing.assert_array_equal(result.selected_indices, [0, 1])
    np.testing.assert_array_equal(result.scores, [1, 1, 1, 1, 2, 2, 2])
    np.testing.assert_array_equal(result.gradient, np.zeros(3))


# ---------------------------------------------------------- combination table
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 10), k=st.integers(0, 10))
def test_combination_table_matches_itertools(n, k):
    if k > n:
        with pytest.raises(ResilienceConditionError):
            combination_table(n, k)
        return
    table = combination_table(n, k)
    if k == 0:
        # itertools yields one empty tuple; the table is one empty row.
        assert table.shape == (1, 0)
        return
    expected = np.array(list(combinations(range(n), k)), dtype=np.intp)
    expected = expected.reshape(-1, k)  # normalise the empty-result shape
    assert table.shape == expected.shape
    np.testing.assert_array_equal(table, expected)
