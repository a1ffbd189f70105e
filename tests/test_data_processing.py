"""Tests for preprocessing, sampling and corruption utilities."""

import numpy as np
import pytest

from repro.data import (
    MiniBatchSampler,
    corrupt_features,
    min_max_scale,
    permute_labels,
)
from repro.exceptions import ConfigurationError


class TestMinMaxScale:
    def test_2d_scaled_to_unit_interval(self, rng):
        x = rng.standard_normal((50, 4)) * 10 + 3
        scaled = min_max_scale(x)
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)

    def test_image_tensor_scaled_per_channel(self, rng):
        x = rng.standard_normal((10, 3, 4, 4))
        scaled = min_max_scale(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_return_bounds(self, rng):
        x = rng.standard_normal((20, 5))
        scaled, low, high = min_max_scale(x, return_bounds=True)
        np.testing.assert_allclose((x - low) / (high - low), scaled)

    def test_constant_feature_does_not_divide_by_zero(self):
        x = np.ones((5, 2))
        scaled = min_max_scale(x)
        assert np.isfinite(scaled).all()

    def test_1d_rejected(self):
        with pytest.raises(ConfigurationError):
            min_max_scale(np.ones(5))


class TestMiniBatchSampler:
    def test_batch_shapes(self, tiny_dataset):
        sampler = MiniBatchSampler(tiny_dataset.train_x, tiny_dataset.train_y, 16, rng=0)
        x, y = sampler.sample()
        assert x.shape == (16, 8)
        assert y.shape == (16,)

    def test_deterministic_given_seed(self, tiny_dataset):
        a = MiniBatchSampler(tiny_dataset.train_x, tiny_dataset.train_y, 8, rng=3).sample()
        b = MiniBatchSampler(tiny_dataset.train_x, tiny_dataset.train_y, 8, rng=3).sample()
        np.testing.assert_array_equal(a[0], b[0])

    def test_different_seeds_differ(self, tiny_dataset):
        a = MiniBatchSampler(tiny_dataset.train_x, tiny_dataset.train_y, 8, rng=3).sample()
        b = MiniBatchSampler(tiny_dataset.train_x, tiny_dataset.train_y, 8, rng=4).sample()
        assert not np.allclose(a[0], b[0])

    def test_batch_larger_than_dataset_allowed(self):
        # Sampling is with replacement, so the batch can exceed the dataset size.
        x, y = np.ones((5, 2)), np.zeros(5)
        sampler = MiniBatchSampler(x, y, 20, rng=0)
        batch_x, _ = sampler.sample()
        assert batch_x.shape == (20, 2)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            MiniBatchSampler(np.zeros((0, 3)), np.zeros(0), 4)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            MiniBatchSampler(np.zeros((5, 3)), np.zeros(4), 2)


class TestCorruption:
    def test_permute_labels_is_a_bijection(self):
        labels = np.arange(10)
        permuted = permute_labels(labels, 10, rng=0)
        assert set(permuted.tolist()) == set(range(10))
        assert not np.array_equal(permuted, labels)

    def test_permute_labels_consistent_mapping(self):
        labels = np.array([0, 1, 0, 2, 1])
        permuted = permute_labels(labels, 3, rng=1)
        # The same original label always maps to the same corrupted label.
        assert permuted[0] == permuted[2]
        assert permuted[1] == permuted[4]

    def test_corrupt_features_scale(self, rng):
        features = rng.standard_normal((50, 4)) * 0.01
        corrupted = corrupt_features(features, scale=10.0, rng=0)
        assert np.abs(corrupted).std() > np.abs(features).std() * 10

    def test_corrupt_features_partial(self, rng):
        features = np.zeros((100, 3))
        corrupted = corrupt_features(features, fraction=0.2, scale=5.0, rng=0)
        changed_rows = (np.abs(corrupted).sum(axis=1) > 0).sum()
        assert changed_rows == 20

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            permute_labels(np.zeros(5, dtype=int), 1)
        with pytest.raises(ConfigurationError):
            corrupt_features(np.zeros((5, 2)), scale=0.0)
