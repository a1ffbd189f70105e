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
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.pooling import GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.reshape import Flatten
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.parameter import Parameter
from repro.utils.flatten import flatten_arrays, unflatten_array

#: Parameter-free layers whose every output row depends on its own input row
#: alone: :meth:`Sequential.stacked_loss_and_gradients` runs their own
#: forward and backward on ``k`` workers' rows at once.
_PER_SAMPLE_LAYERS = (ReLU, LeakyReLU, Sigmoid, Tanh, Flatten, MaxPool2D, GlobalAvgPool2D)


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
        #: Each layer's parameter count, fixed like the shapes: the stacked
        #: pass slices the flat vector by them, and its backward stops at the
        #: first parameterised layer (layers before it need none).
        self._layer_sizes = [layer.num_parameters for layer in self.layers]
        self._first_parameterised = next(
            (index for index, size in enumerate(self._layer_sizes) if size), len(self.layers)
        )
        #: Whether a gradient draws Dropout masks: the stacked pass then
        #: needs one mask stream per worker.
        self.has_dropout = any(isinstance(layer, Dropout) for layer in self.layers)
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

    def check_stacked(self) -> None:
        """Raise :class:`ConfigurationError` unless :meth:`stacked_loss_and_gradients` runs this model.

        Every layer must be a per-sample one or have a stacked form (see
        :mod:`repro.nn.layers.base`), and the loss a ``stacked`` one.
        """
        missing = [
            type(layer).__name__ for layer in self.layers
            if type(layer) not in _PER_SAMPLE_LAYERS and not hasattr(layer, "stacked_forward")
        ] + ([] if hasattr(self.loss, "stacked") else [type(self.loss).__name__])
        if missing:
            raise ConfigurationError(
                f"{missing[0]} has no stacked form: a worker's gradient is computed only by "
                "Sequential.stacked_loss_and_gradients"
            )

    def stacked_loss_and_gradients(
        self,
        parameters: Sequence[np.ndarray],
        x: np.ndarray,
        y: np.ndarray,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """:meth:`loss_and_gradient` of ``k`` workers in one forward and one backward.

        ``parameters[i]`` is worker ``i``'s flat snapshot, ``x[i]`` /
        ``y[i]`` its mini-batch (``x`` is ``(k, b, ...)``) and ``rngs[i]``
        the stream of its :class:`Dropout` masks (only a Dropout model needs
        them).  Returns the ``(k,)`` losses, the ``(k, d)`` gradients and the
        forward flops per sample — bit for bit what ``k`` copies of the model
        loaded with those snapshots (their Dropout layers drawing from those
        streams) return from :meth:`loss_and_gradient` and then
        :meth:`flops_per_sample`.  Only for a model :meth:`check_stacked`
        accepts; the model's own parameters are neither read nor written.

        The pass is one loop over the layers: a layer with a stacked form
        runs it (each gemm the one a worker's own pass calls, on the same
        operands), a per-sample layer its own forward and backward on the
        ``(k * b, ...)`` rows.  Gradients
        accumulate into zeros as a worker's own do (a ``-0.0`` leaves as
        ``+0.0``), every loss normalises by its own batch and every L2 term
        reads its own snapshot.  A snapshot object shared by every worker
        is validated once and broadcast, never copied ``k`` times; a
        wrong-size one raises :meth:`set_parameters`' error.
        """
        dim = self.num_parameters
        num = len(parameters)
        # One object k times: an identity test with no Python call per row.
        shared = num > 0 and len(set(map(id, parameters))) == 1
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
            stack = flats[0].reshape(dim)
        else:
            stack = np.array([flat.reshape(dim) for flat in flats])
        batch = x.shape[1]
        rows = x.reshape(num * batch, *x.shape[2:])
        # Per layer: its offset and size in the flat vector and its cache.
        saved = []
        offset = 0
        for layer, size in zip(self.layers, self._layer_sizes):
            cache = None
            if type(layer) in _PER_SAMPLE_LAYERS:
                rows = layer.forward(rows, training=True)
            else:
                rows, cache = layer.stacked_forward(
                    rows, num, stack[..., offset : offset + size], rngs
                )
            saved.append((offset, size, cache))
            offset += size
        forward_flops = float(sum(layer.last_forward_flops for layer in self.layers))

        losses, grad = self.loss.stacked(rows.reshape(num, batch, *rows.shape[1:]), y)
        grad = grad.reshape(rows.shape)
        gradients = np.zeros((num, dim))
        first = self._first_parameterised
        for index in range(len(self.layers) - 1, first - 1, -1):
            layer = self.layers[index]
            offset, size, cache = saved[index]
            if type(layer) in _PER_SAMPLE_LAYERS:
                grad = layer.backward(grad)
            else:
                grad = layer.stacked_backward(
                    grad, num, cache, gradients[:, offset : offset + size], index > first
                )
        if self.l2 > 0.0:
            if shared:
                squares = float(stack @ stack)
            else:
                squares = np.matmul(stack[:, None, :], stack[:, :, None]).reshape(num)
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(name={self.name!r}, layers={len(self.layers)}, d={self.num_parameters})"


#: Signature of a model factory: ``(rng) -> Sequential``.
ModelFactory = Callable[..., Sequential]

__all__ = ["Sequential", "ModelFactory"]
