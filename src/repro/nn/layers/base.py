"""Layer abstract base class.

Layers are stateful forward/backward operators.  ``forward`` caches whatever
it needs for ``backward``; ``backward`` receives the gradient with respect to
the layer's output, accumulates gradients into the layer's parameters, and
returns the gradient with respect to the layer's input.

The stacked form of a layer, for ``Sequential.stacked_loss_and_gradients``:
``stacked_forward(rows, num, parameters, rngs) -> (rows, cache)`` on ``num``
workers' ``(num * b, ...)`` rows, *parameters* the layer's slice of their
flat snapshots (``(size,)`` when one is shared, else ``(num, size)``), and
``stacked_backward(grad, num, cache, grads, input_grad)``, which adds into
each worker's zeroed row of *grads* and returns the input gradient only when
*input_grad*.  Per worker, both compute the floats ``forward`` / ``backward``
would.
"""

from __future__ import annotations

import abc
from typing import List

import numpy as np

from repro.nn.parameter import Parameter


class Layer(abc.ABC):
    """Base class for all layers."""

    def __init__(self) -> None:
        self._parameters: List[Parameter] = []
        #: Floating-point operations of the most recent forward pass (whole
        #: batch).  Compute-heavy layers (Dense, Conv2D) update this in
        #: ``forward``; for everything else the cost is negligible and stays 0.
        #: The cluster's cost model uses it to convert gradient computation
        #: into simulated time.
        self.last_forward_flops: float = 0.0

    # --------------------------------------------------------------- params
    def add_parameter(self, data: np.ndarray, name: str) -> Parameter:
        """Register a trainable parameter owned by this layer."""
        param = Parameter(data, name=f"{type(self).__name__}.{name}")
        self._parameters.append(param)
        return param

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this layer (possibly empty)."""
        return list(self._parameters)

    def zero_grad(self) -> None:
        """Reset parameter gradients."""
        for param in self.parameters():
            param.zero_grad()

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return int(sum(p.size for p in self.parameters()))

    # ----------------------------------------------------------------- api
    @abc.abstractmethod
    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Compute the layer output for input *x*."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate *grad_output*; return the gradient w.r.t. the input."""

    def __call__(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


__all__ = ["Layer"]
