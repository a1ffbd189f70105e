"""Plain SGD and momentum SGD."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optim.base import Optimizer, register_optimizer


@register_optimizer("sgd")
class SGD(Optimizer):
    """Vanilla stochastic gradient descent (Equation 2 of the paper)."""

    def _update(self, gradient: np.ndarray) -> np.ndarray:
        return self.learning_rate() * gradient


@register_optimizer("momentum")
class MomentumSGD(Optimizer):
    """SGD with (optionally Nesterov) momentum."""

    def __init__(self, learning_rate=1e-3, momentum: float = 0.9, nesterov: bool = False) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)
        self._velocity: np.ndarray | None = None

    def _update(self, gradient: np.ndarray) -> np.ndarray:
        lr = self.learning_rate()
        if self._velocity is None or self._velocity.shape != gradient.shape:
            self._velocity = np.zeros_like(gradient)
        self._velocity = self.momentum * self._velocity + gradient
        if self.nesterov:
            return lr * (self.momentum * self._velocity + gradient)
        return lr * self._velocity


__all__ = ["SGD", "MomentumSGD"]
