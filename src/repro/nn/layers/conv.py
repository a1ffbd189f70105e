"""2-D convolution layer (NCHW layout).

Two interchangeable implementations share the layer:

``"loop"`` (the default)
    Vectorised over batch and spatial dimensions; the only Python loop is
    over the ``kh * kw`` kernel positions (25 iterations for the paper's
    5x5 kernels), each a single ``einsum`` on a strided view of the padded
    input.

``"im2col"``
    Lowers the convolution to one matrix contraction: the padded input is
    unfolded into a ``(batch, C*kh*kw, out_h*out_w)`` column tensor whose
    K axis follows the weight's own ``(C, kh, kw)`` ravel order, so the
    forward is a single ``einsum("nkl,ok->nol")`` and both weight and
    input gradients are single contractions too (plus a ``col2im``
    scatter-add).

The two produce the same convolution up to floating-point summation order
(they accumulate the ``C*kh*kw`` reduction in different orders), so results
agree to high relative tolerance but are not bit-identical — which is why
``"loop"`` stays the default and ``"im2col"`` is opt-in per layer.
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
    """Unfold a padded NCHW tensor into ``(N, C*kh*kw, out_h*out_w)`` columns.

    The K axis is ordered ``(C, kh, kw)`` — the same ravel order as a
    ``(O, C, kh, kw)`` convolution weight — so ``weight.reshape(O, -1)``
    contracts against it directly.  Built from a zero-copy strided view,
    then materialised once (the contraction wants contiguous memory).
    """
    n, c = padded.shape[:2]
    s0, s1, s2, s3 = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
        writeable=False,
    )
    return np.ascontiguousarray(view).reshape(n, c * kh * kw, out_h * out_w)


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
    """Scatter-add ``(N, C*kh*kw, out_h*out_w)`` columns back to padded NCHW.

    The adjoint of :func:`im2col`: overlapping kernel windows must *sum*
    into the image, so the scatter loops over the ``kh*kw`` positions and
    adds each slice into a strided view of the output.
    """
    n, c = padded_shape[:2]
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    grad_padded = np.zeros(padded_shape, dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw] += cols[
                :, :, i, j
            ]
    return grad_padded


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
    impl:
        ``"loop"`` (default) or ``"im2col"`` — see the module docstring.
        Mutable at any time; each backward consumes the cache its own
        forward produced, so flipping between forwards is safe.
    """

    IMPLS = ("loop", "im2col")

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
        impl: str = "loop",
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
        impl = str(impl).lower()
        if impl not in self.IMPLS:
            raise ConfigurationError(f"impl must be one of {self.IMPLS}, got {impl!r}")
        self.impl = impl

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
        sh, sw = self.stride
        out_h, out_w, (ph0, ph1), (pw0, pw1) = self._geometry(h, w)
        self.last_forward_flops = (
            2.0 * n * self.out_channels * self.in_channels * kh * kw * out_h * out_w
        )
        padded = np.pad(x, ((0, 0), (0, 0), (ph0, ph1), (pw0, pw1)))
        if self.impl == "im2col":
            cols = im2col(padded, kh, kw, sh, sw, out_h, out_w)
            out = np.einsum(
                "nkl,ok->nol", cols, self.weight.data.reshape(self.out_channels, -1),
                optimize=True,
            ).reshape(n, self.out_channels, out_h, out_w)
            if self.bias is not None:
                out += self.bias.data[None, :, None, None]
            if training:
                self._cache = ("im2col", cols, x.shape, padded.shape, out_h, out_w)
            return out
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
        # Dispatch on which forward produced the cache, not on self.impl —
        # impl may be flipped between a forward and its backward, and each
        # backward must consume the matching cache.
        if self._cache[0] == "im2col":
            return self._backward_im2col(grad_output)
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

    def _backward_im2col(self, grad_output: np.ndarray) -> np.ndarray:
        _, cols, input_shape, padded_shape, out_h, out_w = self._cache
        kh, kw = self.kernel_size
        sh, sw = self.stride
        n = grad_output.shape[0]
        g = np.asarray(grad_output, dtype=np.float64).reshape(
            n, self.out_channels, out_h * out_w
        )
        self.weight.grad += np.einsum("nkl,nol->ok", cols, g, optimize=True).reshape(
            self.weight.grad.shape
        )
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))
        grad_cols = np.einsum(
            "nol,ok->nkl", g, self.weight.data.reshape(self.out_channels, -1),
            optimize=True,
        )
        grad_padded = col2im(grad_cols, padded_shape, kh, kw, sh, sw, out_h, out_w)
        _, _, h, w = input_shape
        _, _, (ph0, _), (pw0, _) = self._geometry(h, w)
        return grad_padded[:, :, ph0 : ph0 + h, pw0 : pw0 + w]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, kernel={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding!r})"
        )


__all__ = ["Conv2D", "same_padding", "valid_output", "im2col", "col2im"]
