"""Data-corruption utilities for the Figure 7 ("corrupted data") experiment.

A "mild" Byzantine worker does not fabricate gradients: it simply computes
honest gradients on corrupted data (permuted labels, garbage pixels).  These
helpers implement the corruptions applied to such a worker's local dataset.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.random import SeedLike, as_rng
from repro.utils.validation import check_probability


def permute_labels(labels: np.ndarray, num_classes: int, *, rng: SeedLike = None) -> np.ndarray:
    """Apply one fixed random permutation of the label set (systematic corruption)."""
    labels = np.asarray(labels, dtype=np.intp)
    if num_classes < 2:
        raise ConfigurationError("label permutation needs at least 2 classes")
    generator = as_rng(rng)
    permutation = generator.permutation(num_classes)
    # Ensure the permutation is not the identity, otherwise nothing is corrupted.
    while np.array_equal(permutation, np.arange(num_classes)):
        permutation = generator.permutation(num_classes)
    return permutation[labels]


def corrupt_features(
    features: np.ndarray, *, fraction: float = 1.0, scale: float = 10.0, rng: SeedLike = None
) -> np.ndarray:
    """Replace a fraction of samples' features with large-amplitude noise."""
    features = np.asarray(features, dtype=np.float64).copy()
    fraction = check_probability(fraction, "fraction")
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    generator = as_rng(rng)
    n = features.shape[0]
    count = int(round(fraction * n))
    if count == 0:
        return features
    idx = generator.choice(n, size=count, replace=False)
    features[idx] = generator.normal(0.0, scale, size=features[idx].shape)
    return features


__all__ = ["permute_labels", "corrupt_features"]
