"""Tests for flatten/unflatten utilities."""

import numpy as np
import pytest

from repro.utils.flatten import flatten_arrays, unflatten_array


def test_roundtrip_preserves_values(rng):
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal(5), rng.standard_normal((2, 2, 2))]
    flat, shapes = flatten_arrays(arrays)
    assert flat.shape == (3 * 4 + 5 + 8,)
    restored = unflatten_array(flat, shapes)
    for original, back in zip(arrays, restored):
        np.testing.assert_allclose(original, back)


def test_flatten_empty_list():
    flat, shapes = flatten_arrays([])
    assert flat.size == 0
    assert shapes == []


def test_unflatten_wrong_size_raises():
    with pytest.raises(ValueError):
        unflatten_array(np.zeros(5), [(2, 2)])


def test_unflatten_preserves_shapes():
    restored = unflatten_array(np.arange(6, dtype=float), [(2, 3)])
    assert restored[0].shape == (2, 3)
    np.testing.assert_array_equal(restored[0], np.arange(6).reshape(2, 3))


def test_flatten_casts_to_float64():
    flat, _ = flatten_arrays([np.array([1, 2, 3], dtype=np.int32)])
    assert flat.dtype == np.float64


def test_scalar_shape_roundtrip():
    flat, shapes = flatten_arrays([np.array(3.5)])
    assert flat.shape == (1,)
    restored = unflatten_array(flat, shapes)
    assert restored[0].shape == ()
    assert float(restored[0]) == 3.5
