"""Sequential model: an ordered stack of layers with flat parameter access.

The parameter-server protocol exchanges flat ``(d,)`` vectors — the model
parameters broadcast by the server and the gradient estimates pushed by the
workers — so the model exposes ``get_parameters`` / ``set_parameters`` /
``get_gradients`` in flat form on top of the per-layer tensors.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers.activations import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.layers.reshape import Flatten
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.parameter import Parameter
from repro.utils.flatten import flatten_arrays, unflatten_array

#: Parameter-free layers whose every output row depends on its own input row
#: alone: :meth:`Sequential.stacked_loss_and_gradients` runs them on ``k``
#: workers' rows at once.
_PER_SAMPLE_LAYERS = (ReLU, LeakyReLU, Sigmoid, Tanh, Flatten)


class Sequential:
    """A feed-forward stack of layers with a classification/regression head.

    Parameters
    ----------
    layers:
        Ordered list of :class:`~repro.nn.layers.base.Layer` instances.
    loss:
        Loss object exposing ``forward(outputs, targets)`` and ``backward()``;
        defaults to softmax cross-entropy (the paper's image-classification
        setting).
    l2:
        Optional L2 regularisation coefficient applied to every parameter
        (mirrors AggregaThor's ``--l2-regularize`` flag).
    name:
        Human-readable model name used in experiment reports.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        *,
        loss=None,
        l2: float = 0.0,
        name: str = "sequential",
    ) -> None:
        if len(layers) == 0:
            raise ConfigurationError("a Sequential model needs at least one layer")
        for layer in layers:
            if not isinstance(layer, Layer):
                raise ConfigurationError(f"{layer!r} is not a Layer")
        if l2 < 0:
            raise ConfigurationError(f"l2 must be non-negative, got {l2}")
        self.layers: List[Layer] = list(layers)
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.l2 = float(l2)
        self.name = str(name)
        self._shapes = [p.shape for p in self.parameters()]
        self._num_parameters = sum(math.prod(shape) for shape in self._shapes)
        self._last_forward_flops: float = 0.0
        self._last_batch_size: int = 0

    # ----------------------------------------------------------- parameters
    def parameters(self) -> List[Parameter]:
        """All trainable parameters in layer order."""
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count (the model dimensionality ``d``).

        Fixed at construction, like the shapes :meth:`set_parameters` unpacks
        against: the cost model reads it once per worker per round.
        """
        return self._num_parameters

    def get_parameters(self) -> np.ndarray:
        """Flat copy of all parameters (the vector the server broadcasts)."""
        flat, _ = flatten_arrays([p.data for p in self.parameters()])
        return flat

    def set_parameters(self, flat: np.ndarray) -> None:
        """Load a flat parameter vector into the model (a worker receiving the model)."""
        arrays = unflatten_array(flat, self._shapes)
        for param, array in zip(self.parameters(), arrays):
            param.data[...] = array

    def get_gradients(self) -> np.ndarray:
        """Flat copy of the accumulated gradients (the vector a worker pushes)."""
        flat, _ = flatten_arrays([p.grad for p in self.parameters()])
        return flat

    def zero_grad(self) -> None:
        """Reset all accumulated gradients."""
        for layer in self.layers:
            layer.zero_grad()

    # ------------------------------------------------------------- compute
    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        """Run the full forward pass and return the final layer output."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer(out, training=training)
        self._last_forward_flops = float(sum(layer.last_forward_flops for layer in self.layers))
        self._last_batch_size = int(x.shape[0]) if hasattr(x, "shape") and x.ndim else 1
        return out

    def flops_per_sample(self) -> float:
        """Forward-pass floating-point operations per sample.

        Measured from the most recent forward pass (convolutions dominate for
        image models, which is what makes the ResNet-like model of Figure 5(b)
        far more compute-heavy per parameter than the Table-1 CNN).  Before
        any forward pass, falls back to the dense estimate ``2 * d``.
        """
        if self._last_batch_size > 0 and self._last_forward_flops > 0:
            return self._last_forward_flops / self._last_batch_size
        return 2.0 * self.num_parameters

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate through every layer (reverse order)."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def loss_and_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mini-batch loss and flat gradient — the worker-side computation.

        Equivalent to one gradient estimation ``G(x, xi)`` of Equation 3: the
        model parameters are left untouched, gradients are freshly accumulated
        for this batch only.
        """
        self.zero_grad()
        outputs = self.forward(x, training=True)
        loss_value = self.loss.forward(outputs, y)
        self.backward(self.loss.backward())
        gradient = self.get_gradients()
        if self.l2 > 0.0:
            params = self.get_parameters()
            loss_value += 0.5 * self.l2 * float(params @ params)
            gradient = gradient + self.l2 * params
        return float(loss_value), gradient

    def stacked_signature(self) -> Optional[tuple]:
        """What :meth:`stacked_loss_and_gradients` computes for this model.

        ``None`` when it cannot run the model: a layer other than
        :class:`Dense` and the per-sample stateless layers (a Dropout stream
        is per-replica state; a ``Conv2D`` has no stacked form yet), a loss
        other than the two built-in ones, or no ``Dense`` at all.  Two models
        with equal signatures compute the same function of the same flat
        parameters.
        """
        if type(self.loss) not in (SoftmaxCrossEntropy, MeanSquaredError):
            return None
        layers = []
        for layer in self.layers:
            if type(layer) is Dense:
                layers.append((Dense, layer.in_features, layer.out_features, layer.use_bias))
            elif type(layer) is LeakyReLU:
                layers.append((LeakyReLU, layer.negative_slope))
            elif type(layer) in _PER_SAMPLE_LAYERS:
                layers.append((type(layer),))
            else:
                return None
        if not any(layer[0] is Dense for layer in layers):
            return None
        return type(self.loss), self.l2, tuple(layers)

    def stacked_loss_and_gradients(
        self, parameters: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """:meth:`loss_and_gradient` of ``k`` workers in one forward and one backward.

        ``parameters[i]`` is worker ``i``'s flat snapshot and ``x[i]`` /
        ``y[i]`` its mini-batch (``x`` is ``(k, b, ...)``).  Returns the
        ``(k,)`` losses, the ``(k, d)`` gradients and the forward flops per
        sample — bit for bit what ``k`` replicas loaded with those snapshots
        return from :meth:`loss_and_gradient` and then
        :meth:`flops_per_sample`.  Only for a model with a
        :meth:`stacked_signature`; the model's own parameters are neither
        read nor written.

        Each :class:`Dense` is one ``np.matmul`` over the ``k`` slices — the
        gemm a replica calls, on the same operands — and the stateless
        layers run their own forward and backward on the ``(k * b, ...)``
        rows.  Gradients accumulate into zeros as a replica's do (a ``-0.0``
        leaves as ``+0.0``), every loss normalises by its own batch and
        every L2 term reads its own snapshot.  A snapshot object shared by
        every worker is validated once and broadcast, never copied ``k``
        times; a wrong-size one raises :meth:`set_parameters`' error.
        """
        dim = self.num_parameters
        num = len(parameters)
        shared = num > 0 and all(flat is parameters[0] for flat in parameters)
        flats = [
            np.asarray(flat, dtype=np.float64)
            for flat in (parameters[:1] if shared else parameters)
        ]
        for flat in flats:
            if flat.size != dim:
                raise ValueError(f"flat vector has {flat.size} elements but shapes require {dim}")
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != num or np.shape(y)[0] != num:
            raise ConfigurationError(
                f"{num} snapshots need {num} mini-batches, got {x.shape[0]} and "
                f"{np.shape(y)[0]}"
            )
        if shared:
            stack, lead = flats[0].reshape(dim), ()
        else:
            stack, lead = np.array([flat.reshape(dim) for flat in flats]), (num,)
        batch = x.shape[1]
        rows = x.reshape(num * batch, *x.shape[2:])
        forward_flops = 0.0
        # Per Dense (by layer index): its stacked input, weight view and the
        # offsets of its weight and bias in the flat parameter vector.
        saved = {}
        offset = 0
        for index, layer in enumerate(self.layers):
            if type(layer) is not Dense:
                rows = layer.forward(rows, training=True)
                continue
            fan_in, fan_out = layer.in_features, layer.out_features
            if rows.ndim != 2 or rows.shape[1] != fan_in:
                raise ConfigurationError(
                    f"Dense expected input of shape (batch, {fan_in}), got "
                    f"{(batch,) + rows.shape[1:]}"
                )
            forward_flops += 2.0 * batch * fan_in * fan_out
            inputs = rows.reshape(num, batch, fan_in)
            weight = stack[..., offset : offset + fan_in * fan_out].reshape(
                *lead, fan_in, fan_out
            )
            saved[index] = (inputs, weight, offset, offset + fan_in * fan_out)
            offset += fan_in * fan_out
            out = np.matmul(inputs, weight)
            if layer.use_bias:
                out = out + stack[..., offset : offset + fan_out].reshape(*lead, 1, fan_out)
                offset += fan_out
            rows = out.reshape(num * batch, fan_out)

        losses, grad = self.loss.stacked(rows.reshape(num, batch, *rows.shape[1:]), y)
        grad = grad.reshape(rows.shape)
        gradients = np.zeros((num, dim))
        first_dense = min(saved)
        for index in range(len(self.layers) - 1, first_dense - 1, -1):
            layer = self.layers[index]
            if index not in saved:
                grad = layer.backward(grad)
                continue
            inputs, weight, weight_at, bias_at = saved[index]
            fan_in, fan_out = layer.in_features, layer.out_features
            grad3 = grad.reshape(num, batch, fan_out)
            gradients[:, weight_at:bias_at] += np.matmul(
                inputs.transpose(0, 2, 1), grad3
            ).reshape(num, fan_in * fan_out)
            if layer.use_bias:
                gradients[:, bias_at : bias_at + fan_out] += grad3.sum(axis=1)
            if index > first_dense:
                grad = np.matmul(grad3, weight.swapaxes(-1, -2)).reshape(num * batch, fan_in)
        if self.l2 > 0.0:
            if lead:
                squares = np.matmul(stack[:, None, :], stack[:, :, None]).reshape(num)
            else:
                squares = float(stack @ stack)
            losses = losses + 0.5 * self.l2 * squares
            gradients = gradients + self.l2 * stack
        return losses, gradients, forward_flops / batch

    # ------------------------------------------------------------ inference
    def predict_logits(self, x: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Raw model outputs in evaluation mode, optionally mini-batched."""
        x = np.asarray(x, dtype=np.float64)
        if batch_size is None or x.shape[0] <= batch_size:
            return self.forward(x, training=False)
        chunks = [
            self.forward(x[start : start + batch_size], training=False)
            for start in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def predict(self, x: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Predicted class indices."""
        return self.predict_logits(x, batch_size=batch_size).argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray, batch_size: Optional[int] = 512) -> float:
        """Top-1 accuracy on ``(x, y)`` — the paper's cross-accuracy metric."""
        predictions = self.predict(x, batch_size=batch_size)
        return float((predictions == np.asarray(y)).mean())

    def summary(self) -> str:
        """Human-readable architecture summary with per-layer parameter counts."""
        lines = [f"Model: {self.name} ({self.num_parameters:,} parameters)"]
        for i, layer in enumerate(self.layers):
            lines.append(f"  [{i:2d}] {layer!r:60s} params={layer.num_parameters:,}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(name={self.name!r}, layers={len(self.layers)}, d={self.num_parameters})"


#: Signature of a model factory: ``(rng) -> Sequential``.
ModelFactory = Callable[..., Sequential]

__all__ = ["Sequential", "ModelFactory"]
