"""Tests for input validation helpers."""

import numpy as np
import pytest

from repro.exceptions import AggregationError, ConfigurationError
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_int,
    check_probability,
    stack_gradients,
)


class TestCheckPositiveInt:
    def test_accepts_valid(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(4), "x") == 4

    def test_rejects_zero_by_default(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "x")

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(3.5, "x")

    def test_custom_minimum(self):
        assert check_positive_int(0, "x", minimum=0) == 0
        with pytest.raises(ConfigurationError):
            check_positive_int(-1, "x", minimum=0)


class TestCheckNonNegativeInt:
    def test_zero_ok(self):
        assert check_non_negative_int(0, "f") == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            check_non_negative_int(-1, "f")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_valid(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_invalid(self, value):
        with pytest.raises(ConfigurationError):
            check_probability(value, "p")

    def test_non_numeric(self):
        with pytest.raises(ConfigurationError):
            check_probability("half", "p")


class TestStackGradients:
    def test_list_of_vectors(self):
        matrix = stack_gradients([np.ones(4), np.zeros(4)])
        assert matrix.shape == (2, 4)
        assert matrix.dtype == np.float64

    def test_matrix_passthrough(self):
        matrix = stack_gradients(np.arange(12, dtype=float).reshape(3, 4))
        assert matrix.shape == (3, 4)

    def test_empty_list_raises(self):
        with pytest.raises(AggregationError):
            stack_gradients([])

    def test_mismatched_dims_raise(self):
        with pytest.raises(AggregationError):
            stack_gradients([np.ones(4), np.ones(5)])

    def test_zero_dim_raises(self):
        with pytest.raises(AggregationError):
            stack_gradients([np.zeros(0)])

    def test_3d_array_rejected(self):
        with pytest.raises(AggregationError):
            stack_gradients(np.zeros((2, 3, 4)))

    def test_flattens_multi_dimensional_vectors(self):
        matrix = stack_gradients([np.ones((2, 3)), np.zeros((2, 3))])
        assert matrix.shape == (2, 6)
