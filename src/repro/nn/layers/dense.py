"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.initializers import get_initializer, zeros
from repro.nn.layers.base import Layer
from repro.utils.random import SeedLike, as_rng
from repro.utils.validation import check_positive_int


class Dense(Layer):
    """Affine transformation ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    use_bias:
        Whether to add a bias term.
    weight_init:
        Name of an initialiser from :mod:`repro.nn.initializers`.
    rng:
        Seed or generator for the weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        use_bias: bool = True,
        weight_init: str = "glorot",
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        init = get_initializer(weight_init)
        generator = as_rng(rng)
        self.weight = self.add_parameter(
            init((self.in_features, self.out_features), generator), "weight"
        )
        self.use_bias = bool(use_bias)
        self.bias = (
            self.add_parameter(zeros((self.out_features,)), "bias") if self.use_bias else None
        )
        self._cache_input: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"Dense expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._cache_input = x if training else None
        self.last_forward_flops = 2.0 * x.shape[0] * self.in_features * self.out_features
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        x = self._cache_input
        self.weight.grad += x.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data.T

    def stacked_forward(self, rows, num, parameters, rngs):
        """:meth:`forward` of ``num`` workers: one ``np.matmul`` over their slices."""
        fan_in, fan_out = self.in_features, self.out_features
        batch = rows.shape[0] // num
        if rows.ndim != 2 or rows.shape[1] != fan_in:
            raise ConfigurationError(
                f"Dense expected input of shape (batch, {fan_in}), got "
                f"{(batch,) + rows.shape[1:]}"
            )
        self.last_forward_flops = 2.0 * batch * fan_in * fan_out
        lead = parameters.shape[:-1]
        inputs = rows.reshape(num, batch, fan_in)
        weight = parameters[..., : fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        out = np.matmul(inputs, weight)
        if self.use_bias:
            out = out + parameters[..., fan_in * fan_out :].reshape(*lead, 1, fan_out)
        return out.reshape(num * batch, fan_out), (inputs, weight)

    def stacked_backward(self, grad, num, cache, grads, input_grad):
        """:meth:`backward` of the :meth:`stacked_forward` rows."""
        inputs, weight = cache
        fan_in, fan_out = self.in_features, self.out_features
        grad3 = grad.reshape(num, -1, fan_out)
        grads[:, : fan_in * fan_out] += np.matmul(
            inputs.transpose(0, 2, 1), grad3
        ).reshape(num, fan_in * fan_out)
        if self.use_bias:
            grads[:, fan_in * fan_out :] += grad3.sum(axis=1)
        if input_grad:
            return np.matmul(grad3, weight.swapaxes(-1, -2)).reshape(-1, fan_in)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features})"


__all__ = ["Dense"]
