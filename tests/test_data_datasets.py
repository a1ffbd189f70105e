"""Tests for the synthetic dataset generators and the Dataset container."""

import numpy as np
import pytest

from repro.data import (
    Dataset,
    available_datasets,
    gaussian_blobs,
    linear_regression_task,
    load_dataset,
    synthetic_cifar,
    synthetic_mnist,
    two_spirals,
)
from repro.exceptions import ConfigurationError


class TestDatasetContainer:
    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            Dataset(rng.standard_normal((10, 3)), np.zeros(9), rng.standard_normal((2, 3)), np.zeros(2))

    def test_properties(self, tiny_dataset):
        assert len(tiny_dataset.train_x) == 300
        assert len(tiny_dataset.test_x) == 80
        assert tiny_dataset.train_x.shape[1:] == (8,)
        assert tiny_dataset.num_classes == 3


class TestGenerators:
    def test_blobs_learnable_and_deterministic(self):
        a = gaussian_blobs(rng=5)
        b = gaussian_blobs(rng=5)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        assert set(np.unique(a.train_y)) <= set(range(3))

    def test_blobs_different_seeds_differ(self):
        assert not np.allclose(gaussian_blobs(rng=1).train_x, gaussian_blobs(rng=2).train_x)

    def test_spirals_binary(self):
        ds = two_spirals(num_train=200, num_test=50, rng=0)
        assert ds.num_classes == 2
        assert ds.train_x.shape == (200, 2)
        assert set(np.unique(ds.train_y)) == {0, 1}

    def test_linear_regression_targets_shape(self):
        ds = linear_regression_task(num_train=100, num_test=20, dim=5, rng=0)
        assert ds.train_y.shape == (100, 1)
        assert ds.num_classes == 0

    def test_synthetic_cifar_shapes_and_range(self):
        ds = synthetic_cifar(num_train=50, num_test=10, image_size=16, rng=0)
        assert ds.train_x.shape == (50, 3, 16, 16)
        assert ds.test_x.shape == (10, 3, 16, 16)
        assert ds.train_x.min() >= 0.0 and ds.train_x.max() <= 1.0
        assert ds.test_x.min() >= 0.0 and ds.test_x.max() <= 1.0

    def test_synthetic_mnist_single_channel(self):
        ds = synthetic_mnist(num_train=30, num_test=10, image_size=14, rng=0)
        assert ds.train_x.shape == (30, 1, 14, 14)
        assert ds.num_classes == 10

    def test_synthetic_images_are_learnable(self):
        """A linear classifier on flattened synthetic CIFAR beats chance easily."""
        from repro.nn.models import logistic_regression
        from repro.optim import Adam

        ds = synthetic_cifar(num_train=400, num_test=100, image_size=8, num_classes=4, rng=0)
        flat_train = ds.train_x.reshape(len(ds.train_x), -1)
        flat_test = ds.test_x.reshape(len(ds.test_x), -1)
        model = logistic_regression(input_dim=flat_train.shape[1], num_classes=4, rng=0)
        optimizer = Adam(learning_rate=1e-2)
        params = model.get_parameters()
        sampler = np.random.default_rng(0)
        for _ in range(100):
            idx = sampler.integers(0, len(ds.train_x), size=64)
            model.set_parameters(params)
            _, grad = model.loss_and_gradient(flat_train[idx], ds.train_y[idx])
            params = optimizer.step(params, grad)
        model.set_parameters(params)
        assert model.accuracy(flat_test, ds.test_y) > 0.6

    def test_registry(self):
        assert {"blobs", "spirals", "linreg", "synthetic-cifar", "synthetic-mnist"} <= set(
            available_datasets()
        )
        ds = load_dataset("blobs", num_train=50, num_test=10, rng=0)
        assert len(ds.train_x) == 50
        with pytest.raises(ConfigurationError):
            load_dataset("imagenet")

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            gaussian_blobs(num_train=0)
        with pytest.raises(ConfigurationError):
            synthetic_cifar(image_size=0)
