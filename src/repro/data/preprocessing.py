"""Preprocessing: the paper's per-feature min-max scaling."""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError


def min_max_scale(
    x: np.ndarray, *, return_bounds: bool = False
) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Scale features to [0, 1] per feature (the paper's preprocessing step).

    For image tensors the scaling is per channel (axis 0 is the batch, all
    remaining axes of one channel share the bounds); for 2-D matrices it is
    per column.  With ``return_bounds=True`` the (low, high) arrays are also
    returned so the same transform can be applied to held-out data.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ConfigurationError(f"expected at least 2-D data, got shape {x.shape}")
    if x.ndim == 2:
        reduce_axes: tuple[int, ...] = (0,)
    else:
        # (N, C, H, W, ...) -> share bounds over batch and spatial axes.
        reduce_axes = (0,) + tuple(range(2, x.ndim))
    low = x.min(axis=reduce_axes, keepdims=True)
    high = x.max(axis=reduce_axes, keepdims=True)
    span = np.maximum(high - low, 1e-12)
    scaled = (x - low) / span
    if return_bounds:
        return scaled, low, high
    return scaled


__all__ = ["min_max_scale"]
