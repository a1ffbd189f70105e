"""Loss functions (value + gradient w.r.t. the model output).

Each loss also takes ``k`` mini-batches stacked on a leading axis
(:meth:`SoftmaxCrossEntropy.stacked`, :meth:`MeanSquaredError.stacked`):
slice ``i`` of what it returns is what ``forward`` / ``backward`` return for
batch ``i`` alone, bit for bit — every batch normalises by its own size.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class SoftmaxCrossEntropy:
    """Softmax + cross-entropy for integer class labels.

    ``forward`` returns the mean loss over the batch; ``backward`` returns the
    gradient of that mean loss with respect to the logits.  L2
    regularisation is the model's (``Sequential(l2=...)``), not the loss's.
    """

    def __init__(self) -> None:
        self._cache: Tuple[np.ndarray, np.ndarray] | None = None

    @staticmethod
    def _check(logits: np.ndarray, labels: np.ndarray) -> None:
        """Raise for one batch's malformed logits or labels."""
        if logits.ndim != 2:
            raise ConfigurationError(
                f"logits must be 2-D (batch, classes), got shape {logits.shape}"
            )
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise ConfigurationError(
                f"labels must be 1-D of length {logits.shape[0]}, got shape {labels.shape}"
            )
        if labels.min() < 0 or labels.max() >= logits.shape[1]:
            raise ConfigurationError(
                f"labels must lie in [0, {logits.shape[1] - 1}], got range "
                f"[{labels.min()}, {labels.max()}]"
            )

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels)
        self._check(logits, labels)
        probs = softmax(logits)
        self._cache = (probs, labels.astype(np.intp))
        picked = probs[np.arange(labels.shape[0]), labels]
        return float(-np.log(np.maximum(picked, 1e-300)).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, labels = self._cache
        grad = probs.copy()
        grad[np.arange(labels.shape[0]), labels] -= 1.0
        return grad / labels.shape[0]

    def stacked(self, logits: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Losses ``(k,)`` and logit gradients ``(k, b, classes)`` of ``k`` stacked batches.

        *logits* is ``(k, b, classes)`` and *labels* ``(k, b)``.  A malformed
        stack raises what :meth:`forward` raises for its first bad batch;
        the label range is checked once over the stack, so a well-formed
        one pays two reductions, not ``2k``.
        """
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels)
        if (
            logits.ndim != 3 or labels.shape != logits.shape[:2]
            or labels.min() < 0 or labels.max() >= logits.shape[2]
        ):
            for one_logits, one_labels in zip(logits, labels):
                self._check(one_logits, one_labels)
        num, batch, classes = logits.shape
        rows = np.arange(num * batch)
        flat_labels = labels.reshape(-1)
        probs = softmax(logits.reshape(num * batch, classes))
        picked = probs[rows, flat_labels]
        # ``sum / b`` is the reduction and division ``mean`` runs, without its wrapper.
        losses = -(np.log(np.maximum(picked, 1e-300)).reshape(num, batch).sum(axis=1) / batch)
        probs[rows, flat_labels] -= 1.0
        return losses, (probs / batch).reshape(num, batch, classes)

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)


class MeanSquaredError:
    """Mean squared error for regression targets."""

    def __init__(self) -> None:
        self._cache: Tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ConfigurationError(
                f"prediction shape {predictions.shape} != target shape {targets.shape}"
            )
        self._cache = (predictions, targets)
        return float(np.mean((predictions - targets) ** 2))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        predictions, targets = self._cache
        return 2.0 * (predictions - targets) / predictions.size

    def stacked(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Losses ``(k,)`` and prediction gradients of ``k`` batches stacked on axis 0."""
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ConfigurationError(
                f"prediction shape {predictions.shape[1:]} != target shape {targets.shape[1:]}"
            )
        num = predictions.shape[0]
        diff = predictions - targets
        size = diff.size // num
        return (diff ** 2).reshape(num, size).sum(axis=1) / size, 2.0 * diff / size

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


__all__ = ["softmax", "SoftmaxCrossEntropy", "MeanSquaredError"]
