"""Helpers shared by the nn tests: numerical gradient checks and the loop conv oracle."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers import Conv2D


def numerical_gradient(func, x: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = func(x)
        flat[i] = original - epsilon
        minus = func(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * epsilon)
    return grad


def check_layer_gradients(layer, input_shape, *, rng=None, atol=1e-5, rtol=1e-4) -> None:
    """Check a layer's backward pass (input and parameter gradients) numerically.

    Uses the scalar objective ``sum(weights * layer(x))`` with fixed random
    weights so every output coordinate contributes.
    """
    generator = rng if rng is not None else np.random.default_rng(0)
    x = generator.standard_normal(input_shape)
    out = layer.forward(x, training=True)
    weights = generator.standard_normal(out.shape)

    def objective_of_input(x_value):
        return float(np.sum(weights * layer.forward(x_value, training=True)))

    # Analytic gradients from one forward/backward pass.
    layer.zero_grad()
    layer.forward(x, training=True)
    grad_input = layer.backward(weights)

    numeric_input = numerical_gradient(objective_of_input, x.copy())
    np.testing.assert_allclose(grad_input, numeric_input, atol=atol, rtol=rtol)

    for param in layer.parameters():
        def objective_of_param(value, _param=param):
            backup = _param.data.copy()
            _param.data[...] = value
            result = float(np.sum(weights * layer.forward(x, training=True)))
            _param.data[...] = backup
            return result

        # Recompute analytic parameter gradient against the original data.
        layer.zero_grad()
        layer.forward(x, training=True)
        layer.backward(weights)
        numeric = numerical_gradient(objective_of_param, param.data.copy())
        np.testing.assert_allclose(param.grad, numeric, atol=atol, rtol=rtol)


class LoopConv2D(Conv2D):
    """The retired per-kernel-position convolution, frozen as the reference oracle.

    Vectorised over batch and spatial dimensions; the only Python loop is over
    the ``kh * kw`` kernel positions, each a single ``einsum`` on a strided
    view of the padded input.  It accumulates the ``C*kh*kw`` reduction in
    another order than the live layer's gemm, so the two agree to tolerance,
    not to the bit.  Same constructor, parameters and geometry as
    :class:`~repro.nn.layers.Conv2D`.
    """

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ConfigurationError(
                f"Conv2D expected input of shape (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        kh, kw = self.kernel_size
        sh, sw = self.stride
        out_h, out_w, (ph0, ph1), (pw0, pw1) = self._geometry(h, w)
        self.last_forward_flops = (
            2.0 * n * self.out_channels * self.in_channels * kh * kw * out_h * out_w
        )
        padded = np.pad(x, ((0, 0), (0, 0), (ph0, ph1), (pw0, pw1)))
        out = np.zeros((n, self.out_channels, out_h, out_w), dtype=np.float64)
        for i in range(kh):
            for j in range(kw):
                patch = padded[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw]
                out += np.einsum("ncyx,oc->noyx", patch, self.weight.data[:, :, i, j],
                                 optimize=True)
        if self.bias is not None:
            out += self.bias.data[None, :, None, None]
        if training:
            self._cache = ("loop", padded, x.shape, out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        _, padded, input_shape, out_h, out_w = self._cache
        kh, kw = self.kernel_size
        sh, sw = self.stride
        grad_padded = np.zeros_like(padded)
        for i in range(kh):
            for j in range(kw):
                patch = padded[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw]
                self.weight.grad[:, :, i, j] += np.einsum(
                    "ncyx,noyx->oc", patch, grad_output, optimize=True
                )
                grad_padded[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw] += np.einsum(
                    "noyx,oc->ncyx", grad_output, self.weight.data[:, :, i, j], optimize=True
                )
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
        # Strip padding to recover the gradient w.r.t. the original input.
        _, _, h, w = input_shape
        _, _, (ph0, _), (pw0, _) = self._geometry(h, w)
        return grad_padded[:, :, ph0 : ph0 + h, pw0 : pw0 + w]
