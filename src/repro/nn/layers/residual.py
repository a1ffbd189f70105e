"""Residual block used by the ResNet-like large model of Figure 5(b)."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.activations import ReLU
from repro.nn.parameter import Parameter
from repro.utils.random import SeedLike, spawn_rngs


class ResidualBlock(Layer):
    """Two 3x3 convolutions with a skip connection: ``y = relu(f(x) + proj(x))``.

    When the channel count changes (or ``stride != 1``) the skip connection is
    a 1x1 projection convolution, as in standard ResNets.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        *,
        stride: int = 1,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(rng, 3)
        self.conv1 = Conv2D(
            in_channels, out_channels, 3, stride=stride, padding="same", rng=rngs[0]
        )
        self.relu1 = ReLU()
        self.conv2 = Conv2D(out_channels, out_channels, 3, stride=1, padding="same", rng=rngs[1])
        self.relu2 = ReLU()
        self.needs_projection = (in_channels != out_channels) or (stride != 1)
        self.projection = (
            Conv2D(in_channels, out_channels, 1, stride=stride, padding="same",
                   use_bias=False, rng=rngs[2])
            if self.needs_projection
            else None
        )
        #: The convolutions in parameter order.
        self.convs = [self.conv1, self.conv2] + (
            [self.projection] if self.projection is not None else []
        )

    def parameters(self) -> List[Parameter]:
        return [param for conv in self.convs for param in conv.parameters()]

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        main = self.conv1(x, training=training)
        main = self.relu1(main, training=training)
        main = self.conv2(main, training=training)
        skip = self.projection(x, training=training) if self.projection is not None else x
        self.last_forward_flops = sum(conv.last_forward_flops for conv in self.convs)
        return self.relu2(main + skip, training=training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.relu2.backward(grad_output)
        grad_main = self.conv2.backward(grad)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        grad_skip = self.projection.backward(grad) if self.projection is not None else grad
        return grad_main + grad_skip

    def stacked_forward(self, rows, num, parameters, rngs):
        """:meth:`forward` of ``num`` workers, made of the convolutions' stacked forms."""
        bounds = np.cumsum([0] + [conv.num_parameters for conv in self.convs]).tolist()
        params = [parameters[..., a:b] for a, b in zip(bounds, bounds[1:])]
        main, cache1 = self.conv1.stacked_forward(rows, num, params[0], rngs)
        main, cache2 = self.conv2.stacked_forward(self.relu1(main), num, params[1], rngs)
        skip, cache3 = (
            self.projection.stacked_forward(rows, num, params[2], rngs)
            if self.projection is not None
            else (rows, None)
        )
        self.last_forward_flops = sum(conv.last_forward_flops for conv in self.convs)
        return self.relu2(main + skip), (bounds, cache1, cache2, cache3)

    def stacked_backward(self, grad, num, cache, grads, input_grad):
        """:meth:`backward` of the :meth:`stacked_forward` rows."""
        bounds, cache1, cache2, cache3 = cache
        slices = [grads[:, a:b] for a, b in zip(bounds, bounds[1:])]
        grad = self.relu2.backward(grad)
        grad_main = self.conv2.stacked_backward(grad, num, cache2, slices[1], True)
        grad_main = self.conv1.stacked_backward(
            self.relu1.backward(grad_main), num, cache1, slices[0], input_grad
        )
        grad_skip = (
            self.projection.stacked_backward(grad, num, cache3, slices[2], input_grad)
            if self.projection is not None
            else grad
        )
        return grad_main + grad_skip if input_grad else None


__all__ = ["ResidualBlock"]
