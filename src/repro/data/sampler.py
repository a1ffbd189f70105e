"""Per-worker mini-batch sampling.

Each correct worker draws its own iid mini-batch from the training set
(uniform random sampling with replacement), which is the assumption under
which the gradient estimate is unbiased — and the only data assumption
AggregaThor makes (unlike Draco, no agreement on data ordering is needed).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.random import SeedLike, as_rng
from repro.utils.validation import check_positive_int


class MiniBatchSampler:
    """Uniform-with-replacement mini-batch sampler over a training set.

    Parameters
    ----------
    features, labels:
        The training arrays (first axis is the sample axis).
    batch_size:
        The mini-batch size ``b`` (paper default: 100; Figures 3/6 also use
        250 and 20).
    rng:
        Seed or generator; each worker owns an independent sampler stream.
        A zero-argument callable returning the generator (the builder's
        per-worker stream) is called on the first draw, or when a checkpoint
        reads the stream, so a sampler that never draws never builds one.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        batch_size: int,
        *,
        rng: Union[SeedLike, Callable[[], np.random.Generator]] = None,
    ) -> None:
        features = np.asarray(features)
        labels = np.asarray(labels)
        if features.shape[0] != labels.shape[0]:
            raise ConfigurationError(
                f"features have {features.shape[0]} rows but labels have {labels.shape[0]}"
            )
        if features.shape[0] == 0:
            raise ConfigurationError("cannot sample from an empty dataset")
        self.features = features
        self.labels = labels
        self.batch_size = check_positive_int(batch_size, "batch_size")
        if callable(rng):
            self._make_rng = rng
        else:
            self._rng = as_rng(rng)
        self._num_samples = int(features.shape[0])

    @cached_property
    def _rng(self) -> np.random.Generator:
        return self._make_rng()

    @property
    def num_samples(self) -> int:
        """Number of samples in the underlying training set."""
        return self._num_samples

    def sample_indices(self) -> np.ndarray:
        """Draw one mini-batch's sample indices (the :meth:`sample` draw).

        Exposed separately so a fleet of samplers sharing one training set
        can draw per-worker (keeping every stream's position exact) while the
        actual row gather happens once for the whole fleet.
        """
        return self._rng.integers(0, self._num_samples, size=self.batch_size)

    def sample(self) -> Tuple[np.ndarray, np.ndarray]:
        """Draw one mini-batch ``(x, y)`` uniformly at random with replacement."""
        idx = self.sample_indices()
        return self.features[idx], self.labels[idx]


def sample_stacked(samplers: Sequence[MiniBatchSampler]) -> Tuple[np.ndarray, np.ndarray]:
    """One :meth:`~MiniBatchSampler.sample` per sampler, stacked: ``(k, b, ...)`` arrays.

    The samplers draw their indices in the given order, each from its own
    stream, as ``k`` sequential ``sample()`` calls would.  Samplers over one
    training set are gathered with one fancy index; otherwise (a
    corrupted-data worker holds its own copy) each gathers its own rows.
    All samplers must share a batch size.
    """
    indices = [sampler.sample_indices() for sampler in samplers]
    first = samplers[0]
    if all(s.features is first.features and s.labels is first.labels for s in samplers):
        rows = np.array(indices)
        return first.features[rows], first.labels[rows]
    return (
        np.array([s.features[i] for s, i in zip(samplers, indices)]),
        np.array([s.labels[i] for s, i in zip(samplers, indices)]),
    )


__all__ = ["MiniBatchSampler", "sample_stacked"]
