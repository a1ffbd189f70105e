"""Tests for Bulyan (optimised and reference implementations)."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import Bulyan, CoordinateWiseMedian, MultiKrum, NaiveBulyan
from repro.exceptions import AggregationError, ResilienceConditionError


def _qualified_callers(tree, callee):
    """``Class.method`` / ``function`` names of the innermost functions calling *callee*."""
    found = set()

    def visit(node, scope, owner):
        if isinstance(node, ast.ClassDef):
            scope = scope + (node.name,)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = ".".join(scope + (node.name,))
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == callee:
                found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, owner)

    visit(tree, (), None)
    return found


def test_trimming_kernel_has_exactly_the_two_finite_input_callers():
    # trimmed_mean_around_median assumes finite input; these two callers are
    # the ones that guarantee it (Bulyan's AggregationError, MeaMed's fill).
    callers = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        callers |= _qualified_callers(ast.parse(path.read_text()), "trimmed_mean_around_median")
    assert callers == {"Bulyan._aggregate", "MeaMed._aggregate"}


@pytest.fixture
def bulyan_gradients(rng):
    """19 honest gradients (enough for f=4) around a known true gradient."""
    true_gradient = np.linspace(-1.0, 1.0, 30)
    return true_gradient[None, :] + 0.1 * rng.standard_normal((19, 30)), true_gradient


class TestBulyan:
    def test_requires_4f_plus_3(self):
        assert Bulyan.minimum_workers(4) == 19
        with pytest.raises(ResilienceConditionError):
            Bulyan(f=4).aggregate(np.ones((18, 5)))

    def test_matches_naive_reference(self, rng):
        for n, f in [(7, 1), (11, 2), (19, 4)]:
            matrix = rng.standard_normal((n, 25))
            np.testing.assert_allclose(
                Bulyan(f=f).aggregate(matrix), NaiveBulyan(f=f).aggregate(matrix), atol=1e-12
            )

    def test_close_to_true_gradient_without_byzantine(self, bulyan_gradients):
        gradients, true_gradient = bulyan_gradients
        aggregated = Bulyan(f=4).aggregate(gradients)
        assert np.linalg.norm(aggregated - true_gradient) < 0.5

    def test_resists_f_large_outliers(self, bulyan_gradients):
        gradients, true_gradient = bulyan_gradients
        byzantine = 1e4 * np.ones((4, 30))
        poisoned = np.vstack([gradients[:15], byzantine])  # n=19, f=4 actual
        aggregated = Bulyan(f=4).aggregate(poisoned)
        assert np.linalg.norm(aggregated - true_gradient) < 1.0

    def test_byzantine_rows_never_selected(self, bulyan_gradients):
        gradients, _ = bulyan_gradients
        byzantine = 1e4 * np.ones((4, 30))
        poisoned = np.vstack([gradients[:15], byzantine])
        result = Bulyan(f=4).aggregate_detailed(poisoned)
        assert not (set(result.selected_indices.tolist()) & {15, 16, 17, 18})

    def test_selection_set_size_is_theta(self, bulyan_gradients):
        gradients, _ = bulyan_gradients
        result = Bulyan(f=4).aggregate_detailed(gradients)
        assert result.selected_indices.shape == (19 - 2 * 4,)

    def test_selection_indices_unique(self, bulyan_gradients):
        gradients, _ = bulyan_gradients
        result = Bulyan(f=4).aggregate_detailed(gradients)
        indices = result.selected_indices.tolist()
        assert len(indices) == len(set(indices))

    def test_more_non_finite_rows_than_f_are_refused(self, rng, monkeypatch):
        # n = 7, f = 1: theta = 5 selected rows but only 4 finite ones, so a
        # NaN row is selected and the rule must refuse it before the trimming
        # kernel, whose precondition is finite input, ever runs.
        matrix = rng.standard_normal((7, 6))
        matrix[[1, 3, 5]] = np.nan
        monkeypatch.setattr(
            "repro.core.bulyan.trimmed_mean_around_median",
            lambda *args: pytest.fail("the trimming kernel ran on a non-finite selection"),
        )
        with pytest.raises(AggregationError, match="non-finite"):
            Bulyan(f=1).aggregate(matrix)

    def test_nan_submissions_tolerated(self, bulyan_gradients):
        gradients, _ = bulyan_gradients
        poisoned = np.vstack([gradients[:15], np.full((4, 30), np.nan)])
        aggregated = Bulyan(f=4).aggregate(poisoned)
        assert np.isfinite(aggregated).all()

    def test_all_identical_inputs(self):
        matrix = np.tile(np.arange(5, dtype=float), (7, 1))
        np.testing.assert_allclose(Bulyan(f=1).aggregate(matrix), np.arange(5, dtype=float))

    def test_coordinates_within_selected_range(self, bulyan_gradients):
        gradients, _ = bulyan_gradients
        result = Bulyan(f=4).aggregate_detailed(gradients)
        selected = gradients[result.selected_indices]
        assert (result.gradient <= selected.max(axis=0) + 1e-12).all()
        assert (result.gradient >= selected.min(axis=0) - 1e-12).all()

    def test_f_zero_behaves_like_trimmed_average(self, rng):
        # With f=0, theta = n and beta = n: Bulyan degenerates to plain averaging.
        matrix = rng.standard_normal((6, 8))
        np.testing.assert_allclose(Bulyan(f=0).aggregate(matrix), matrix.mean(axis=0), atol=1e-12)

    def test_resilience_metadata(self):
        assert Bulyan.resilience == "strong"
        assert MultiKrum.resilience == "weak"
        assert CoordinateWiseMedian.resilience == "weak"

    def test_little_is_enough_bounded_per_coordinate(self, bulyan_gradients, rng):
        # A dimensional-leeway attack: Byzantine gradients stay within ~1.5 std
        # of the honest mean per coordinate.  Bulyan's output must stay within
        # the honest per-coordinate envelope (strong resilience property).
        gradients, _ = bulyan_gradients
        honest = gradients[:15]
        mean, std = honest.mean(axis=0), honest.std(axis=0)
        byzantine = np.tile(mean - 1.5 * std, (4, 1))
        poisoned = np.vstack([honest, byzantine])
        aggregated = Bulyan(f=4).aggregate(poisoned)
        assert (aggregated >= honest.min(axis=0) - 1e-9).all()
        assert (aggregated <= honest.max(axis=0) + 1e-9).all()
