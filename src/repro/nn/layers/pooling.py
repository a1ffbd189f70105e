"""Spatial pooling layers (NCHW layout)."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import _pair, same_padding, valid_output


class MaxPool2D(Layer):
    """Max pooling (the Table-1 CNN uses 3x3 windows with stride 2, SAME padding)."""

    def __init__(self, pool_size, *, stride=None, padding: str = "same") -> None:
        super().__init__()
        self.pool_size = _pair(pool_size, "pool_size")
        self.stride = _pair(stride if stride is not None else pool_size, "stride")
        padding = str(padding).lower()
        if padding not in ("same", "valid"):
            raise ConfigurationError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.padding = padding
        self._cache: tuple | None = None

    def _geometry(self, h: int, w: int):
        kh, kw = self.pool_size
        sh, sw = self.stride
        if self.padding == "same":
            out_h, ph0, ph1 = same_padding(h, kh, sh)
            out_w, pw0, pw1 = same_padding(w, kw, sw)
        else:
            out_h, ph0, ph1 = valid_output(h, kh, sh), 0, 0
            out_w, pw0, pw1 = valid_output(w, kw, sw), 0, 0
        return out_h, out_w, (ph0, ph1), (pw0, pw1)

    def _windows(self, padded: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
        """Stack the pooling windows: shape ``(kh*kw, N, C, out_h, out_w)``."""
        kh, kw = self.pool_size
        sh, sw = self.stride
        slices = [
            padded[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw]
            for i in range(kh)
            for j in range(kw)
        ]
        return np.stack(slices, axis=0)

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ConfigurationError(f"MaxPool2D expected NCHW input, got shape {x.shape}")
        n, c, h, w = x.shape
        out_h, out_w, (ph0, ph1), (pw0, pw1) = self._geometry(h, w)
        padded = np.pad(
            x, ((0, 0), (0, 0), (ph0, ph1), (pw0, pw1)), constant_values=-np.inf
        )
        windows = self._windows(padded, out_h, out_w)
        argmax = windows.argmax(axis=0)
        out = np.take_along_axis(windows, argmax[None], axis=0)[0]
        if training:
            self._cache = (argmax, x.shape, padded.shape, out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        argmax, input_shape, padded_shape, out_h, out_w = self._cache
        kh, kw = self.pool_size
        sh, sw = self.stride
        grad_padded = np.zeros(padded_shape, dtype=np.float64)
        # Scatter the gradient back to the window position that won the max.
        for idx in range(kh * kw):
            i, j = divmod(idx, kw)
            mask = argmax == idx
            if not mask.any():
                continue
            grad_padded[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw] += np.where(
                mask, grad_output, 0.0
            )
        _, _, h, w = input_shape
        _, _, (ph0, _), (pw0, _) = self._geometry(h, w)
        return grad_padded[:, :, ph0 : ph0 + h, pw0 : pw0 + w]


class GlobalAvgPool2D(Layer):
    """Global spatial average: ``(N, C, H, W) -> (N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._cache_shape: tuple | None = None

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ConfigurationError(f"GlobalAvgPool2D expected NCHW input, got shape {x.shape}")
        if training:
            self._cache_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        n, c, h, w = self._cache_shape
        return np.broadcast_to(
            grad_output[:, :, None, None] / float(h * w), (n, c, h, w)
        ).copy()


__all__ = ["MaxPool2D", "GlobalAvgPool2D"]
