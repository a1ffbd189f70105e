"""2-D convolution layer (NCHW layout), lowered to 2-D gemms.

The padded input is unfolded into a ``(C*kh*kw, N*out_h*out_w)`` column
matrix whose row axis follows the weight's own ``(C, kh, kw)`` ravel order
(:func:`im2col`), so each contraction is one 2-D ``np.matmul``:

* forward: ``W(O, K) @ cols``;
* weight gradient: ``g(O, N*L) @ cols.T``;
* input gradient: ``W.T @ g``, scattered back by :func:`col2im`.

A training forward caches only the padded input; the backward rebuilds the
columns, so no ``(K, N*L)`` matrix outlives the call that made it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.initializers import get_initializer, zeros
from repro.nn.layers.base import Layer
from repro.utils.random import SeedLike, as_rng
from repro.utils.validation import check_positive_int


def _pair(value, name: str) -> Tuple[int, int]:
    """Normalise an int or 2-tuple into a (height, width) pair of positive ints."""
    if isinstance(value, (int, np.integer)):
        value = (int(value), int(value))
    if len(value) != 2:
        raise ConfigurationError(f"{name} must be an int or a pair, got {value!r}")
    return (check_positive_int(int(value[0]), name), check_positive_int(int(value[1]), name))


def same_padding(in_size: int, kernel: int, stride: int) -> Tuple[int, int, int]:
    """TensorFlow-style SAME padding: output size and (before, after) pad amounts."""
    out_size = -(-in_size // stride)  # ceil division
    total_pad = max((out_size - 1) * stride + kernel - in_size, 0)
    before = total_pad // 2
    after = total_pad - before
    return out_size, before, after


def valid_output(in_size: int, kernel: int, stride: int) -> int:
    """Output size of a VALID (no padding) convolution/pooling."""
    if in_size < kernel:
        raise ConfigurationError(
            f"input size {in_size} smaller than kernel {kernel} with VALID padding"
        )
    return (in_size - kernel) // stride + 1


def im2col(
    padded: np.ndarray, kh: int, kw: int, sh: int, sw: int, out_h: int, out_w: int
) -> np.ndarray:
    """Unfold a padded NCHW tensor into ``(C*kh*kw, N*out_h*out_w)`` columns.

    The row axis is ordered ``(C, kh, kw)`` — the ravel order of a
    ``(O, C, kh, kw)`` convolution weight — so ``weight.reshape(O, -1)``
    multiplies it directly; the column axis is ``(N, out_h, out_w)``.  Built
    from a zero-copy strided view, then materialised once (the gemm wants
    contiguous memory).
    """
    n, c = padded.shape[:2]
    s0, s1, s2, s3 = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(c, kh, kw, n, out_h, out_w),
        strides=(s1, s2, s3, s0, s2 * sh, s3 * sw),
        writeable=False,
    )
    return np.ascontiguousarray(view).reshape(c * kh * kw, n * out_h * out_w)


def col2im(
    cols: np.ndarray,
    padded_shape: Tuple[int, ...],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter-add ``(C*kh*kw, N*out_h*out_w)`` columns back to padded NCHW.

    The adjoint of :func:`im2col`: overlapping kernel windows must *sum*
    into the image, so the scatter loops over the ``kh*kw`` positions and
    adds each slice into a strided view of a channel-major buffer, returned
    as an NCHW view.
    """
    n, c, height, width = padded_shape
    cols = cols.reshape(c, kh, kw, n, out_h, out_w)
    grad_padded = np.zeros((c, n, height, width), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw] += cols[:, i, j]
    return grad_padded.transpose(1, 0, 2, 3)


class Conv2D(Layer):
    """2-D convolution over NCHW inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Kernel height/width (int or pair).
    stride:
        Convolution stride (int or pair).
    padding:
        ``"same"`` (TensorFlow SAME semantics, used by the Table-1 CNN) or
        ``"valid"``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        *,
        stride=1,
        padding: str = "same",
        use_bias: bool = True,
        weight_init: str = "he",
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_channels = check_positive_int(in_channels, "in_channels")
        self.out_channels = check_positive_int(out_channels, "out_channels")
        self.kernel_size = _pair(kernel_size, "kernel_size")
        self.stride = _pair(stride, "stride")
        padding = str(padding).lower()
        if padding not in ("same", "valid"):
            raise ConfigurationError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.padding = padding

        init = get_initializer(weight_init)
        generator = as_rng(rng)
        kh, kw = self.kernel_size
        self.weight = self.add_parameter(
            init((self.out_channels, self.in_channels, kh, kw), generator), "weight"
        )
        self.use_bias = bool(use_bias)
        self.bias = (
            self.add_parameter(zeros((self.out_channels,)), "bias") if self.use_bias else None
        )
        self._cache: tuple | None = None

    # ------------------------------------------------------------------ geometry
    def _geometry(self, h: int, w: int) -> Tuple[int, int, Tuple[int, int], Tuple[int, int]]:
        kh, kw = self.kernel_size
        sh, sw = self.stride
        if self.padding == "same":
            out_h, ph0, ph1 = same_padding(h, kh, sh)
            out_w, pw0, pw1 = same_padding(w, kw, sw)
        else:
            out_h, ph0, ph1 = valid_output(h, kh, sh), 0, 0
            out_w, pw0, pw1 = valid_output(w, kw, sw), 0, 0
        return out_h, out_w, (ph0, ph1), (pw0, pw1)

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Output ``(channels, height, width)`` for an input ``(channels, height, width)``."""
        c, h, w = input_shape
        if c != self.in_channels:
            raise ConfigurationError(f"expected {self.in_channels} input channels, got {c}")
        out_h, out_w, _, _ = self._geometry(h, w)
        return (self.out_channels, out_h, out_w)

    # ------------------------------------------------------------------ forward
    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ConfigurationError(
                f"Conv2D expected input of shape (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        kh, kw = self.kernel_size
        out_h, out_w, (ph0, ph1), (pw0, pw1) = self._geometry(h, w)
        self.last_forward_flops = (
            2.0 * n * self.out_channels * self.in_channels * kh * kw * out_h * out_w
        )
        padded = np.pad(x, ((0, 0), (0, 0), (ph0, ph1), (pw0, pw1)))
        out = self.weight.data.reshape(self.out_channels, -1) @ self._columns(padded, out_h, out_w)
        if self.bias is not None:
            out += self.bias.data[:, None]
        if training:
            self._cache = (padded, h, w, out_h, out_w)
        return out.reshape(self.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        padded, h, w, out_h, out_w = self._cache
        g = np.asarray(grad_output, dtype=np.float64).transpose(1, 0, 2, 3).reshape(
            self.out_channels, -1
        )
        self.weight.grad += (g @ self._columns(padded, out_h, out_w).T).reshape(
            self.weight.grad.shape
        )
        if self.bias is not None:
            self.bias.grad += g.sum(axis=1)
        kh, kw = self.kernel_size
        sh, sw = self.stride
        grad_cols = self.weight.data.reshape(self.out_channels, -1).T @ g
        grad_padded = col2im(grad_cols, padded.shape, kh, kw, sh, sw, out_h, out_w)
        # Strip padding to recover the gradient w.r.t. the original input.
        _, _, (ph0, _), (pw0, _) = self._geometry(h, w)
        return grad_padded[:, :, ph0 : ph0 + h, pw0 : pw0 + w]

    def _columns(self, padded: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
        kh, kw = self.kernel_size
        sh, sw = self.stride
        return im2col(padded, kh, kw, sh, sw, out_h, out_w)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, kernel={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding!r})"
        )


__all__ = ["Conv2D", "same_padding", "valid_output", "im2col", "col2im"]
