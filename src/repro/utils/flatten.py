"""Flattening utilities for model parameters and gradients.

The parameter-server protocol exchanges a single flat vector per worker (this
is also what the GAR theory assumes), while the neural-network substrate keeps
a list of named parameter tensors.  These helpers convert between the two
representations without copying more than once.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def flatten_arrays(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[Tuple[int, ...]]]:
    """Concatenate *arrays* into one 1-D ``float64`` vector.

    Returns the flat vector and the list of original shapes needed by
    :func:`unflatten_array` to reverse the operation.
    """
    shapes = [tuple(a.shape) for a in arrays]
    if len(arrays) == 0:
        return np.zeros(0, dtype=np.float64), shapes
    flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    return flat, shapes


def unflatten_array(flat: np.ndarray, shapes: Sequence[Tuple[int, ...]]) -> List[np.ndarray]:
    """Split a flat vector back into arrays with the given *shapes*.

    The inverse of :func:`flatten_arrays`.  Raises ``ValueError`` when the
    total size implied by *shapes* does not match ``flat.size``.
    """
    flat = np.asarray(flat, dtype=np.float64).ravel()
    sizes = [int(np.prod(shape, dtype=np.int64)) if len(shape) else 1 for shape in shapes]
    total = int(sum(sizes))
    if total != flat.size:
        raise ValueError(
            f"flat vector has {flat.size} elements but shapes require {total}"
        )
    out: List[np.ndarray] = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return out


__all__ = ["flatten_arrays", "unflatten_array"]
