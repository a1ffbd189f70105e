"""Adaptive optimizers: RMSprop (the paper's default), Adam, Adagrad, Adadelta."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optim.base import Optimizer, register_optimizer


def _check_unit_interval(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1), got {value}")
    return value


@register_optimizer("rmsprop")
class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton) — the optimizer of the paper's evaluation.

    The paper uses a fixed initial learning rate of 1e-3 with RMSprop for
    every convergence experiment.
    """

    def __init__(self, learning_rate=1e-3, decay: float = 0.9, eps: float = 1e-8) -> None:
        super().__init__(learning_rate)
        self.decay = _check_unit_interval(decay, "decay")
        if eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {eps}")
        self.eps = float(eps)
        self._mean_square: np.ndarray | None = None

    def _update(self, gradient: np.ndarray) -> np.ndarray:
        if self._mean_square is None or self._mean_square.shape != gradient.shape:
            self._mean_square = np.zeros_like(gradient)
        self._mean_square = self.decay * self._mean_square + (1 - self.decay) * gradient**2
        return self.learning_rate() * gradient / (np.sqrt(self._mean_square) + self.eps)


@register_optimizer("adam")
class Adam(Optimizer):
    """Adam with bias-corrected first and second moments."""

    def __init__(self, learning_rate=1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        super().__init__(learning_rate)
        self.beta1 = _check_unit_interval(beta1, "beta1")
        self.beta2 = _check_unit_interval(beta2, "beta2")
        if eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {eps}")
        self.eps = float(eps)
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def _update(self, gradient: np.ndarray) -> np.ndarray:
        if self._m is None or self._m.shape != gradient.shape:
            self._m = np.zeros_like(gradient)
            self._v = np.zeros_like(gradient)
        t = self.step_count + 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * gradient
        self._v = self.beta2 * self._v + (1 - self.beta2) * gradient**2
        m_hat = self._m / (1 - self.beta1**t)
        v_hat = self._v / (1 - self.beta2**t)
        return self.learning_rate() * m_hat / (np.sqrt(v_hat) + self.eps)


@register_optimizer("adagrad")
class Adagrad(Optimizer):
    """Adagrad: per-coordinate rates decaying with accumulated squared gradients."""

    def __init__(self, learning_rate=1e-2, eps: float = 1e-8) -> None:
        super().__init__(learning_rate)
        if eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {eps}")
        self.eps = float(eps)
        self._accumulator: np.ndarray | None = None

    def _update(self, gradient: np.ndarray) -> np.ndarray:
        if self._accumulator is None or self._accumulator.shape != gradient.shape:
            self._accumulator = np.zeros_like(gradient)
        self._accumulator += gradient**2
        return self.learning_rate() * gradient / (np.sqrt(self._accumulator) + self.eps)


@register_optimizer("adadelta")
class Adadelta(Optimizer):
    """Adadelta: Adagrad variant with exponentially decaying accumulators."""

    def __init__(self, learning_rate=1.0, rho: float = 0.95, eps: float = 1e-6) -> None:
        super().__init__(learning_rate)
        self.rho = _check_unit_interval(rho, "rho")
        if eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {eps}")
        self.eps = float(eps)
        self._accum_grad: np.ndarray | None = None
        self._accum_update: np.ndarray | None = None

    def _update(self, gradient: np.ndarray) -> np.ndarray:
        if self._accum_grad is None or self._accum_grad.shape != gradient.shape:
            self._accum_grad = np.zeros_like(gradient)
            self._accum_update = np.zeros_like(gradient)
        self._accum_grad = self.rho * self._accum_grad + (1 - self.rho) * gradient**2
        update = (
            np.sqrt(self._accum_update + self.eps)
            / np.sqrt(self._accum_grad + self.eps)
            * gradient
        )
        self._accum_update = self.rho * self._accum_update + (1 - self.rho) * update**2
        return self.learning_rate() * update


__all__ = ["RMSprop", "Adam", "Adagrad", "Adadelta"]
