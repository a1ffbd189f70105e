"""Synthetic datasets, preprocessing and mini-batch sampling.

The paper trains on CIFAR-10 / MNIST; those cannot be downloaded in an
offline environment, so this package provides deterministic, learnable
synthetic stand-ins (class-conditional image generators plus low-dimensional
classification tasks for fast tests) together with the preprocessing the
paper applies (min-max scaling) and per-worker iid
mini-batch samplers.
"""

from repro.data.dataset import Dataset
from repro.data.datasets import (
    gaussian_blobs,
    two_spirals,
    linear_regression_task,
    synthetic_cifar,
    synthetic_mnist,
    load_dataset,
    available_datasets,
)
from repro.data.preprocessing import min_max_scale
from repro.data.sampler import MiniBatchSampler
from repro.data.corruption import corrupt_features, permute_labels

__all__ = [
    "Dataset",
    "gaussian_blobs",
    "two_spirals",
    "linear_regression_task",
    "synthetic_cifar",
    "synthetic_mnist",
    "load_dataset",
    "available_datasets",
    "min_max_scale",
    "MiniBatchSampler",
    "corrupt_features",
    "permute_labels",
]
