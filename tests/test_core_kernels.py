"""Parity and regression tests for the shared GAR kernel layer.

The oracles below are frozen copies of the pre-refactor helper code that used
to live inline in ``krum.py`` / ``bulyan.py`` / ``meamed.py``; the kernel
extraction must reproduce them bit-for-bit on random and NaN/Inf-laced
inputs, compared with ``tobytes()`` so that the sign of zero counts.  The
closed-form ``max_byzantine`` is pinned against the documented O(n) scan
fallback for every registered rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    GAR_REGISTRY,
    Brute,
    Bulyan,
    CoordinateWiseMedian,
    MeaMed,
    MultiKrum,
    Phocas,
    kernels,
)
from repro.core.base import GradientAggregationRule
from repro.exceptions import ConfigurationError, ResilienceConditionError


# --------------------------------------------------------------------- oracles
# Frozen pre-refactor implementations (seed revision of krum.py / bulyan.py /
# meamed.py).  Do not "simplify" these to call the kernel module — their whole
# point is being independent.

_HUGE_ORACLE = np.finfo(np.float64).max / 1e6


def oracle_pairwise_squared_distances(matrix):
    finite_rows = np.isfinite(matrix).all(axis=1)
    safe = np.where(np.isfinite(matrix), matrix, 0.0)
    sq_norms = np.einsum("ij,ij->i", safe, safe)
    dist = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (safe @ safe.T)
    np.maximum(dist, 0.0, out=dist)
    if not finite_rows.all():
        bad = ~finite_rows
        dist[bad, :] = np.inf
        dist[:, bad] = np.inf
    np.fill_diagonal(dist, 0.0)
    return dist


def oracle_krum_scores(distances, f):
    n = distances.shape[0]
    n_neighbors = n - f - 2
    off_diag = distances.copy()
    np.fill_diagonal(off_diag, np.inf)
    capped = np.minimum(off_diag, _HUGE_ORACLE)
    part = np.partition(capped, n_neighbors - 1, axis=1)[:, :n_neighbors]
    return part.sum(axis=1)


def oracle_multi_krum(matrix, f, m):
    distances = oracle_pairwise_squared_distances(matrix)
    scores = oracle_krum_scores(distances, f)
    selected = np.argpartition(scores, m - 1)[:m]
    selected = selected[np.argsort(scores[selected], kind="stable")]
    return matrix[selected].mean(axis=0), selected


def oracle_trimmed_mean_around_median(selection, beta):
    theta, _ = selection.shape
    if beta >= theta:
        return selection.mean(axis=0)
    median = np.median(selection, axis=0)
    deviation = np.abs(selection - median[None, :])
    idx = np.argpartition(deviation, beta - 1, axis=0)[:beta, :]
    return np.take_along_axis(selection, idx, axis=0).mean(axis=0)


def oracle_bulyan(matrix, f):
    """Frozen seed Bulyan: shared-distance selection + trimmed aggregation."""
    n = matrix.shape[0]
    theta = n - 2 * f
    beta = theta - 2 * f
    n_neighbors = n - f - 2
    distances = oracle_pairwise_squared_distances(matrix)
    active = np.ones(n, dtype=bool)
    selected = []
    for _ in range(theta):
        remaining = np.flatnonzero(active)
        if remaining.size == 1:
            selected.append(int(remaining[0]))
            active[remaining[0]] = False
            continue
        sub = distances[np.ix_(remaining, remaining)].copy()
        np.fill_diagonal(sub, np.inf)
        q = min(n_neighbors, remaining.size - 1)
        capped = np.minimum(sub, _HUGE_ORACLE)
        part = np.partition(capped, q - 1, axis=1)[:, :q]
        scores = part.sum(axis=1)
        winner = remaining[int(np.argmin(scores))]
        selected.append(int(winner))
        active[winner] = False
    selected = np.asarray(selected, dtype=np.intp)
    return oracle_trimmed_mean_around_median(matrix[selected], beta), selected


def oracle_fill_non_finite(matrix):
    # PR-5 bugfix oracle: extremes are *per coordinate* (the seed's global
    # extremes turned a NaN in a small-magnitude coordinate into a
    # cross-scale outlier that distorted mean_around_center whenever `keep`
    # exceeded that coordinate's finite count).  Deliberately written with a
    # per-column loop, independently of the vectorised kernel.
    if np.isfinite(matrix).all():
        return matrix
    clean = matrix.copy()
    for col in range(matrix.shape[1]):
        column = matrix[:, col]
        finite_vals = column[np.isfinite(column)]
        hi = float(finite_vals.max()) + 1.0 if finite_vals.size else 1.0
        lo = float(finite_vals.min()) - 1.0 if finite_vals.size else -1.0
        clean[np.isnan(column), col] = hi
        clean[np.isposinf(column), col] = hi
        clean[np.isneginf(column), col] = lo
    return clean


def oracle_meamed(matrix, f):
    n = matrix.shape[0]
    keep = n - f
    clean = oracle_fill_non_finite(matrix)
    center = np.median(clean, axis=0)
    if keep >= n:
        return clean.mean(axis=0)
    deviation = np.abs(clean - center[None, :])
    idx = np.argpartition(deviation, keep - 1, axis=0)[:keep, :]
    return np.take_along_axis(clean, idx, axis=0).mean(axis=0)


def assert_bytes_equal(actual, expected):
    """``==`` that also sees the sign of zero: same dtype, shape and bytes."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


def lace_non_finite(matrix, rng, num_rows):
    """Poison *num_rows* rows with NaN / ±Inf coordinates (in place copy)."""
    laced = matrix.copy()
    poison = (np.nan, np.inf, -np.inf)
    rows = rng.choice(matrix.shape[0], size=num_rows, replace=False)
    for row in rows:
        cols = rng.choice(matrix.shape[1], size=max(1, matrix.shape[1] // 3), replace=False)
        laced[row, cols] = rng.choice(poison, size=cols.size)
    return laced


def matrices(min_n=5, max_n=16, max_d=12, lace=False):
    """Strategy: a random (n, d) matrix, optionally NaN/Inf-laced, plus f."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_n, max_n))
        d = draw(st.integers(1, max_d))
        seed = draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, d)) * draw(st.sampled_from([1.0, 10.0, 1e-3]))
        num_laced = draw(st.integers(1, max(1, n // 4))) if lace else 0
        if num_laced:
            matrix = lace_non_finite(matrix, rng, num_laced)
        return matrix

    return build()


@st.composite
def tied_selections(draw, parity):
    """Strategy: a ``(theta, d)`` matrix with ``theta % 2 == parity``, tie-laden.

    Every column is a draw from a small exact grid, so the median, the
    deviations around it and the kept set's boundary all tie: exact zeros of
    both signs, duplicate rows, and values placed symmetrically about each
    column's centre (equal ``|x - median|`` on both sides).
    """
    theta = 2 * draw(st.integers(0 if parity else 1, 8)) + parity
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    kind = draw(st.sampled_from(["signed_zeros", "duplicates", "symmetric"]))
    if kind == "signed_zeros":
        matrix = rng.choice(np.array([0.0, -0.0, 0.5, -0.5, 1.0]), size=(theta, d))
    elif kind == "duplicates":
        base = rng.choice(np.array([-0.0, 0.0, 1.0, 2.0]), size=(max(1, theta // 3), d))
        matrix = base[rng.integers(0, base.shape[0], size=theta)]
    else:
        centre = rng.choice(np.array([0.0, -0.0, 1.5, -3.0]), size=d)
        offsets = rng.integers(-2, 3, size=(theta, d)) * 0.25
        matrix = centre[None, :] + offsets
        matrix[rng.random((theta, d)) < 0.2] = -0.0
    return matrix * draw(st.sampled_from([1.0, -1.0, 1e-3]))


# ------------------------------------------------------------- kernel parity
@settings(max_examples=60, deadline=None)
@given(matrix=matrices(), seed=st.integers(0, 2**31))
def test_pairwise_distances_match_oracle_on_clean_input(matrix, seed):
    assert_bytes_equal(
        kernels.pairwise_squared_distances(matrix),
        oracle_pairwise_squared_distances(matrix),
    )


@settings(max_examples=60, deadline=None)
@given(matrix=matrices(lace=True))
def test_pairwise_distances_match_oracle_on_laced_input(matrix):
    assert_bytes_equal(
        kernels.pairwise_squared_distances(matrix),
        oracle_pairwise_squared_distances(matrix),
    )


@settings(max_examples=60, deadline=None)
@given(matrix=matrices(lace=True), f=st.integers(0, 3))
def test_neighbour_sum_scores_match_oracle(matrix, f):
    n = matrix.shape[0]
    if n - f - 2 < 1:
        return
    distances = kernels.pairwise_squared_distances(matrix)
    assert_bytes_equal(
        kernels.neighbour_sum_scores(distances, n - f - 2),
        oracle_krum_scores(distances, f),
    )


@settings(max_examples=60, deadline=None)
@given(matrix=matrices(lace=True))
def test_fill_non_finite_extremes_matches_oracle(matrix):
    assert_bytes_equal(
        kernels.fill_non_finite_extremes(matrix), oracle_fill_non_finite(matrix)
    )


@settings(max_examples=60, deadline=None)
@given(matrix=matrices(), beta=st.integers(1, 20))
def test_trimmed_mean_around_median_matches_oracle(matrix, beta):
    assert_bytes_equal(
        kernels.trimmed_mean_around_median(matrix, beta),
        oracle_trimmed_mean_around_median(matrix, beta),
    )


@pytest.mark.parametrize("parity", [1, 0], ids=["odd-theta", "even-theta"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_trimmed_mean_around_median_matches_oracle_on_ties(parity, data):
    matrix = data.draw(tied_selections(parity))
    beta = data.draw(st.integers(1, matrix.shape[0]))
    assert_bytes_equal(
        kernels.trimmed_mean_around_median(matrix, beta),
        oracle_trimmed_mean_around_median(matrix, beta),
    )


@pytest.mark.parametrize("parity", [1, 0], ids=["odd-n", "even-n"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_meamed_matches_oracle_on_ties(parity, data):
    matrix = data.draw(tied_selections(parity))
    f = data.draw(st.integers(0, (matrix.shape[0] - 1) // 2))
    assert_bytes_equal(MeaMed(f=f).aggregate(matrix), oracle_meamed(matrix, f))


def test_trimmed_phase_matches_oracles_at_the_paper_scale():
    # The paper's deployment: n = 19, f = 4, so theta = 11, beta = 3, at the
    # MLP's d = 99,370; MeaMed over the same 11 rows keeps n - f = 7.
    matrix = np.random.default_rng(19).standard_normal((11, 99_370))
    assert_bytes_equal(
        kernels.trimmed_mean_around_median(matrix, 3),
        oracle_trimmed_mean_around_median(matrix, 3),
    )
    assert_bytes_equal(MeaMed(f=4).aggregate(matrix), oracle_meamed(matrix, 4))
    # bulyan_attack_600's even theta = 560 (f = 20, beta = 520, d = 55): tall
    # enough that a partition at kth = 280 alone does not always leave the
    # lower middle value at row 279 (one column of this draw).
    selection = np.random.default_rng(600).standard_normal((560, 55))
    assert_bytes_equal(
        kernels.trimmed_mean_around_median(selection, 520),
        oracle_trimmed_mean_around_median(selection, 520),
    )


def test_coordinate_wise_median_keeps_np_median_for_the_sign_of_zero():
    """Why ``CoordinateWiseMedian`` does not take the middle-kth partition.

    Its output *is* the median, so the sign of a zero median shows there,
    where the trimming kernel reads the centre only through ``|x - c|``.
    Over all 2**11 sign patterns of an 11-row zero column, the middle element
    of ``np.partition`` and ``np.median`` disagree in bytes somewhere.
    """
    bits = (np.arange(2**11)[None, :] >> np.arange(11)[:, None]) & 1
    columns = np.where(bits == 1, -0.0, 0.0)
    partitioned = np.partition(columns, 5, axis=0)[5]
    median = np.median(columns, axis=0)
    assert partitioned.tobytes() != median.tobytes()
    assert_bytes_equal(CoordinateWiseMedian(f=4).aggregate(columns), median)


# ---------------------------------------------------------------- GAR parity
@settings(max_examples=50, deadline=None)
@given(matrix=matrices(min_n=7), f=st.integers(0, 2), lace_seed=st.integers(0, 2**31))
def test_multi_krum_matches_pre_refactor_output(matrix, f, lace_seed):
    n = matrix.shape[0]
    if n < 2 * f + 3:
        return
    rng = np.random.default_rng(lace_seed)
    if f > 0 and rng.random() < 0.5:
        matrix = lace_non_finite(matrix, rng, f)
    gar = MultiKrum(f=f)
    m = gar.effective_m(n)
    expected, expected_sel = oracle_multi_krum(matrix, f, m)
    if not np.isfinite(matrix[expected_sel]).all():
        return  # the oracle itself would reject this input
    result = gar.aggregate_detailed(matrix)
    assert_bytes_equal(result.gradient, expected)
    assert_bytes_equal(result.selected_indices, expected_sel)


@settings(max_examples=40, deadline=None)
@given(matrix=matrices(min_n=7, max_n=15), f=st.integers(0, 2), lace_seed=st.integers(0, 2**31))
def test_bulyan_matches_pre_refactor_output(matrix, f, lace_seed):
    n = matrix.shape[0]
    if n < 4 * f + 3:
        return
    rng = np.random.default_rng(lace_seed)
    if f > 0 and rng.random() < 0.5:
        matrix = lace_non_finite(matrix, rng, f)
    expected, expected_sel = oracle_bulyan(matrix, f)
    if not np.isfinite(matrix[expected_sel]).all():
        return
    result = Bulyan(f=f).aggregate_detailed(matrix)
    assert_bytes_equal(result.gradient, expected)
    assert_bytes_equal(result.selected_indices, expected_sel)


@settings(max_examples=50, deadline=None)
@given(matrix=matrices(lace=True), f=st.integers(0, 2))
def test_meamed_matches_pre_refactor_output(matrix, f):
    n = matrix.shape[0]
    if n < 2 * f + 1:
        return
    assert_bytes_equal(MeaMed(f=f).aggregate(matrix), oracle_meamed(matrix, f))


def test_selection_gars_import_kernels_only_from_kernel_module():
    """No cross-imports between the selection rule modules (ISSUE acceptance)."""
    import ast
    import pathlib

    import repro.core as core_pkg

    root = pathlib.Path(core_pkg.__file__).parent
    rule_modules = {"krum", "bulyan", "meamed", "brute"}
    for module in rule_modules:
        tree = ast.parse((root / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported = node.module.rsplit(".", 1)[-1]
                assert imported not in rule_modules - {module}, (
                    f"{module}.py imports from {node.module}; kernels must come "
                    "from repro.core.kernels only"
                )


def test_brute_uses_shared_distance_kernel(monkeypatch, rng):
    calls = []
    original = kernels.pairwise_squared_distances

    def spy(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    # The selection GARs now route through the base class's provider hook
    # (GradientAggregationRule._distances), which resolves the kernel from
    # repro.core.kernels at call time — one audited hot path for everyone.
    monkeypatch.setattr(kernels, "pairwise_squared_distances", spy)
    Brute(f=1).aggregate(rng.standard_normal((7, 5)))
    assert calls == [(7, 5)]


# -------------------------------------------------------- kernel edge cases
def test_neighbour_sum_scores_rejects_bad_neighbour_counts():
    distances = np.zeros((4, 4))
    with pytest.raises(ResilienceConditionError):
        kernels.neighbour_sum_scores(distances, 0)
    with pytest.raises(ResilienceConditionError):
        kernels.neighbour_sum_scores(distances, 4)


def test_trimmed_mean_rejects_non_positive_beta():
    with pytest.raises(ResilienceConditionError):
        kernels.trimmed_mean_around_median(np.zeros((3, 2)), 0)


def test_huge_cap_sums_without_overflow():
    scores = kernels.neighbour_sum_scores(np.full((5, 5), np.inf), 3)
    assert np.isfinite(scores).all()
    assert (scores == 3 * kernels.HUGE).all()


def test_fill_non_finite_uses_per_coordinate_extremes():
    """Regression (PR-5): fills happen at the poisoned coordinate's own scale."""
    matrix = np.array([
        [1000.0, 0.010],
        [999.0, 0.011],
        [998.0, np.nan],
    ])
    clean = kernels.fill_non_finite_extremes(matrix)
    assert clean[2, 1] == pytest.approx(1.011)  # 0.011 + 1, not the global 1001
    np.testing.assert_array_equal(clean[:, 0], matrix[:, 0])
    assert clean[2, 0] == 998.0


def test_fill_non_finite_column_without_finite_entries_falls_back():
    matrix = np.array([[np.nan, 1.0], [np.inf, 2.0], [-np.inf, 3.0]])
    clean = kernels.fill_non_finite_extremes(matrix)
    np.testing.assert_array_equal(clean[:, 0], [1.0, 1.0, -1.0])
    np.testing.assert_array_equal(clean[:, 1], [1.0, 2.0, 3.0])


def test_fill_non_finite_scales_to_fleet_sized_matrices():
    """The masked-numpy rewrite must stay fast at (1000, 10000).

    The pre-vectorisation implementation looped over poisoned coordinates in
    Python and took tens of seconds at this shape; the vectorised kernel runs
    in well under a second.  The bound is deliberately loose (slow shared CI
    runners), but tight enough that any reversion to a per-coordinate Python
    loop fails immediately.
    """
    import time

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((1000, 10000))
    poison = rng.random((1000, 10000)) < 0.01
    matrix[poison] = np.nan
    matrix[0, :5] = np.inf
    matrix[1, :5] = -np.inf
    matrix[:, 0] = np.nan  # one column with no finite entries at all
    start = time.perf_counter()
    clean = kernels.fill_non_finite_extremes(matrix)
    elapsed = time.perf_counter() - start
    assert np.isfinite(clean).all()
    assert elapsed < 3.0, f"fill_non_finite_extremes took {elapsed:.2f}s at (1000, 10000)"


def test_meamed_not_distorted_by_cross_scale_nan_fill():
    """Regression (PR-5): a NaN in a small coordinate must not drag MeaMed.

    ``keep = n - f = 3`` exceeds the poisoned coordinate's finite count (2),
    so one substituted value necessarily enters the per-coordinate mean.
    With the seed's *global* extremes the substitute was ~1001 — three
    orders of magnitude off the coordinate's own range — and the output
    blew up to ~330; with per-coordinate extremes the substitute stays at
    the coordinate's scale and the output stays near the honest values.
    """
    matrix = np.array([
        [1000.0, 0.010],
        [999.0, 0.012],
        [998.0, np.nan],
        [997.0, np.nan],
    ])
    out = MeaMed(f=1).aggregate(matrix)
    assert 0.0 < out[1] < 2.0  # the global-fill bug produced ~334 here
    assert 997.0 <= out[0] <= 1000.0


# ------------------------------------------------- max_byzantine closed form
def test_max_byzantine_closed_form_matches_scan_for_all_rules():
    for name, cls in sorted(GAR_REGISTRY.items()):
        assert cls.min_workers_linear is not None, f"{name} lost its closed form"
        for n in range(0, 65):
            assert cls.max_byzantine(n) == cls._max_byzantine_scan(n), (
                f"{name}: closed form disagrees with the scan at n={n}"
            )


def test_max_byzantine_known_values_unchanged():
    assert MultiKrum.max_byzantine(19) == 8
    assert MultiKrum.max_byzantine(2 * 4 + 3) == 4
    assert Bulyan.max_byzantine(19) == 4
    assert Bulyan.max_byzantine(4 * 2 + 3) == 2
    assert Brute.max_byzantine(3) == 1
    assert MeaMed.max_byzantine(11) == 5
    assert Phocas.max_byzantine(11) == 5


def test_register_gar_rejects_inconsistent_linear_declaration():
    from repro.core.base import register_gar
    from repro.core.base import AggregationResult

    class Lying(GradientAggregationRule):
        resilience = "weak"
        min_workers_linear = (3, 1)  # wrong: minimum_workers says 2f + 1

        @classmethod
        def minimum_workers(cls, f):
            return 2 * f + 1

        def _aggregate(self, matrix):
            return AggregationResult(gradient=matrix.mean(axis=0))

    with pytest.raises(ConfigurationError, match="disagrees"):
        register_gar("lying-rule-xyz")(Lying)


def test_scan_fallback_used_when_no_closed_form():
    from repro.core.base import AggregationResult

    class NonLinear(GradientAggregationRule):
        resilience = "weak"
        min_workers_linear = None

        @classmethod
        def minimum_workers(cls, f):
            return f * f + 1  # deliberately non-linear

        def _aggregate(self, matrix):
            return AggregationResult(gradient=matrix.mean(axis=0))

    assert NonLinear.max_byzantine(10) == 3  # 3^2 + 1 = 10 <= 10 < 4^2 + 1
    assert NonLinear.max_byzantine(0) == 0
