"""Synthetic dataset generators.

Each generator returns a :class:`~repro.data.dataset.Dataset` that is
deterministic for a given seed and genuinely learnable, so that convergence
curves (accuracy vs steps / simulated time) behave like the paper's even
though the underlying images are synthetic:

* :func:`synthetic_cifar` — class-conditional 32x32x3 (configurable) images:
  each class has a smooth random template; samples are the template plus
  pixel noise, then min-max scaled like the paper's preprocessing.
* :func:`synthetic_mnist` — the 28x28x1 counterpart.
* :func:`gaussian_blobs`, :func:`two_spirals`, :func:`linear_regression_task`
  — low-dimensional tasks for fast unit tests and convex-convergence checks.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.data.dataset import Dataset
from repro.data.preprocessing import min_max_scale
from repro.utils.random import SeedLike, as_rng
from repro.utils.validation import check_positive_int, make_registered


def gaussian_blobs(
    *,
    num_train: int = 1000,
    num_test: int = 200,
    num_classes: int = 3,
    dim: int = 10,
    separation: float = 3.0,
    noise: float = 1.0,
    rng: SeedLike = None,
) -> Dataset:
    """Isotropic Gaussian clusters, one per class."""
    check_positive_int(num_train, "num_train")
    check_positive_int(num_test, "num_test")
    check_positive_int(num_classes, "num_classes")
    check_positive_int(dim, "dim")
    generator = as_rng(rng)
    centers = generator.normal(0.0, separation, size=(num_classes, dim))

    def sample(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = generator.integers(0, num_classes, size=count)
        features = centers[labels] + generator.normal(0.0, noise, size=(count, dim))
        return features, labels

    train_x, train_y = sample(num_train)
    test_x, test_y = sample(num_test)
    return Dataset(train_x, train_y, test_x, test_y, name="blobs", num_classes=num_classes)


def two_spirals(
    *,
    num_train: int = 1000,
    num_test: int = 200,
    noise: float = 0.2,
    rng: SeedLike = None,
) -> Dataset:
    """The classic two-interleaved-spirals binary task (non-convex decision boundary)."""
    generator = as_rng(rng)

    def sample(count: int) -> tuple[np.ndarray, np.ndarray]:
        half = count // 2
        labels = np.concatenate([np.zeros(half, dtype=np.intp), np.ones(count - half, dtype=np.intp)])
        t = generator.uniform(0.25, 3.0, size=count) * 2 * np.pi
        sign = np.where(labels == 0, 1.0, -1.0)
        x = sign * t * np.cos(t) / (3 * np.pi) + generator.normal(0, noise, count)
        y = sign * t * np.sin(t) / (3 * np.pi) + generator.normal(0, noise, count)
        features = np.stack([x, y], axis=1)
        perm = generator.permutation(count)
        return features[perm], labels[perm]

    train_x, train_y = sample(num_train)
    test_x, test_y = sample(num_test)
    return Dataset(train_x, train_y, test_x, test_y, name="spirals", num_classes=2)


def linear_regression_task(
    *,
    num_train: int = 500,
    num_test: int = 100,
    dim: int = 20,
    noise: float = 0.1,
    rng: SeedLike = None,
) -> Dataset:
    """Linear regression with Gaussian noise (for MSE-loss tests)."""
    generator = as_rng(rng)
    true_weights = generator.normal(0.0, 1.0, size=(dim, 1))

    def sample(count: int) -> tuple[np.ndarray, np.ndarray]:
        features = generator.normal(0.0, 1.0, size=(count, dim))
        targets = features @ true_weights + generator.normal(0.0, noise, size=(count, 1))
        return features, targets

    train_x, train_y = sample(num_train)
    test_x, test_y = sample(num_test)
    return Dataset(train_x, train_y, test_x, test_y, name="linreg", num_classes=0)


def _synthetic_images(
    *,
    num_train: int,
    num_test: int,
    num_classes: int,
    image_size: int,
    channels: int,
    template_smoothness: int,
    noise: float,
    name: str,
    rng: SeedLike,
) -> Dataset:
    """Shared machinery for the CIFAR-like / MNIST-like generators.

    Each class gets a smooth random template image (low-resolution random
    field upsampled to the target size).  A sample is its class template plus
    iid pixel noise, followed by min-max scaling to [0, 1] — the paper's
    preprocessing step.
    """
    generator = as_rng(rng)
    low_res = max(image_size // template_smoothness, 2)
    templates = generator.normal(0.0, 1.0, size=(num_classes, channels, low_res, low_res))
    # Nearest-neighbour upsample the low-resolution fields to image_size.
    repeat = -(-image_size // low_res)
    templates = np.repeat(np.repeat(templates, repeat, axis=2), repeat, axis=3)
    templates = templates[:, :, :image_size, :image_size]

    def sample(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = generator.integers(0, num_classes, size=count)
        images = templates[labels] + generator.normal(0.0, noise, size=(count, channels, image_size, image_size))
        return images, labels

    train_x, train_y = sample(num_train)
    test_x, test_y = sample(num_test)
    # Min-max scale with the training statistics (same transform on test).
    train_x, low, high = min_max_scale(train_x, return_bounds=True)
    span = np.maximum(high - low, 1e-12)
    test_x = np.clip((test_x - low) / span, 0.0, 1.0)
    return Dataset(train_x, train_y, test_x, test_y, name=name, num_classes=num_classes)


def synthetic_cifar(
    *,
    num_train: int = 2000,
    num_test: int = 400,
    num_classes: int = 10,
    image_size: int = 32,
    channels: int = 3,
    noise: float = 0.6,
    rng: SeedLike = None,
) -> Dataset:
    """CIFAR-10 stand-in: colour images, 10 classes, min-max scaled.

    The defaults are smaller than the real 50k/10k split so paper-profile
    experiments stay tractable on a single machine; pass larger values to
    approach the original scale.
    """
    return _synthetic_images(
        num_train=check_positive_int(num_train, "num_train"),
        num_test=check_positive_int(num_test, "num_test"),
        num_classes=check_positive_int(num_classes, "num_classes"),
        image_size=check_positive_int(image_size, "image_size"),
        channels=check_positive_int(channels, "channels"),
        template_smoothness=4,
        noise=float(noise),
        name=f"synthetic-cifar-{image_size}",
        rng=rng,
    )


def synthetic_mnist(
    *,
    num_train: int = 2000,
    num_test: int = 400,
    num_classes: int = 10,
    image_size: int = 28,
    noise: float = 0.4,
    rng: SeedLike = None,
) -> Dataset:
    """MNIST stand-in: grayscale images, 10 classes, min-max scaled."""
    return _synthetic_images(
        num_train=check_positive_int(num_train, "num_train"),
        num_test=check_positive_int(num_test, "num_test"),
        num_classes=check_positive_int(num_classes, "num_classes"),
        image_size=check_positive_int(image_size, "image_size"),
        channels=1,
        template_smoothness=4,
        noise=float(noise),
        name=f"synthetic-mnist-{image_size}",
        rng=rng,
    )


DATASET_REGISTRY: Dict[str, Callable[..., Dataset]] = {
    "blobs": gaussian_blobs,
    "spirals": two_spirals,
    "linreg": linear_regression_task,
    "synthetic-cifar": synthetic_cifar,
    "synthetic-mnist": synthetic_mnist,
}


def load_dataset(name: str, **kwargs) -> Dataset:
    """Instantiate a dataset generator by name."""
    return make_registered(DATASET_REGISTRY, "dataset", name, kwargs)


def available_datasets() -> list[str]:
    """Names of all registered dataset generators."""
    return sorted(DATASET_REGISTRY)


__all__ = [
    "gaussian_blobs",
    "two_spirals",
    "linear_regression_task",
    "synthetic_cifar",
    "synthetic_mnist",
    "DATASET_REGISTRY",
    "load_dataset",
    "available_datasets",
]
