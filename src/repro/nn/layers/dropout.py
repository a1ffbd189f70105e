"""Inverted dropout layer."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers.base import Layer
from repro.utils.random import SeedLike, as_rng
from repro.utils.validation import check_probability


class Dropout(Layer):
    """Inverted dropout: active only during training, identity at evaluation.

    Parameters
    ----------
    rate:
        Probability of zeroing each activation.
    rng:
        Seed or generator for the dropout masks (deterministic workers need
        deterministic masks).
    """

    def __init__(self, rate: float = 0.5, *, rng: SeedLike = None) -> None:
        super().__init__()
        self.rate = check_probability(rate, "rate")
        if self.rate >= 1.0:
            raise ConfigurationError("dropout rate must be < 1 (rate=1 would zero everything)")
        self._rng = as_rng(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not training:
            self._mask = None
            return x
        out, self._mask = self.stacked_forward(x, 1, None, [self._rng])
        return out

    def stacked_forward(self, rows, num, parameters, rngs):
        """:meth:`forward` of ``num`` workers, worker ``i``'s mask drawn from ``rngs[i]``."""
        if self.rate == 0.0:
            return rows, None
        if rngs is None:
            raise ConfigurationError("a stacked Dropout needs one mask stream per worker")
        keep = 1.0 - self.rate
        shape = (rows.shape[0] // num,) + rows.shape[1:]
        mask = np.concatenate([(rng.random(shape) < keep) / keep for rng in rngs])
        return rows * mask, mask

    def stacked_backward(self, grad, num, cache, grads, input_grad):
        """:meth:`backward` of the :meth:`stacked_forward` rows."""
        return grad if cache is None else grad * cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # No mask (an evaluation-mode forward, or rate 0): identity gradient.
        return self.stacked_backward(grad_output, 1, self._mask, None, True)


__all__ = ["Dropout"]
