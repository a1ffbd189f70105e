"""Dataset container with train/test split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass
class Dataset:
    """A supervised dataset split into training and test portions.

    Attributes
    ----------
    train_x, train_y:
        Training features and integer labels.
    test_x, test_y:
        Held-out features and labels used for the cross-accuracy metric.
    name:
        Identifier used in experiment reports.
    num_classes:
        Number of distinct labels (0 for regression tasks).
    """

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    name: str = "dataset"
    num_classes: int = 0

    def __post_init__(self) -> None:
        if self.train_x.shape[0] != self.train_y.shape[0]:
            raise ConfigurationError(
                f"train_x has {self.train_x.shape[0]} rows but train_y has {self.train_y.shape[0]}"
            )
        if self.test_x.shape[0] != self.test_y.shape[0]:
            raise ConfigurationError(
                f"test_x has {self.test_x.shape[0]} rows but test_y has {self.test_y.shape[0]}"
            )
        if self.train_x.shape[0] == 0:
            raise ConfigurationError("training split must be non-empty")


__all__ = ["Dataset"]
