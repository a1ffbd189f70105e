"""Messages exchanged between the parameter server and the workers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass
class GradientMessage:
    """A gradient estimate pushed from a worker to the server."""

    worker_id: int
    step: int
    gradient: np.ndarray
    loss: float = float("nan")

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ConfigurationError(f"worker_id must be non-negative, got {self.worker_id}")
        if self.step < 0:
            raise ConfigurationError(f"step must be non-negative, got {self.step}")
        self.gradient = np.asarray(self.gradient, dtype=np.float64)
        if self.gradient.ndim != 1:
            raise ConfigurationError(
                f"gradient must be a flat vector, got shape {self.gradient.shape}"
            )

    @classmethod
    def trusted(
        cls,
        worker_id: int,
        step: int,
        gradient: np.ndarray,
        loss: float = float("nan"),
    ) -> "GradientMessage":
        """Construct without re-running ``__post_init__`` validation.

        For hot paths that mint thousands of messages per step from fields
        they already control: *gradient* must be a flat float64 array and
        *worker_id* / *step* non-negative ints — exactly what the validated
        constructor would have produced.
        """
        message = object.__new__(cls)
        message.worker_id = worker_id
        message.step = step
        message.gradient = gradient
        message.loss = loss
        return message

    @property
    def dim(self) -> int:
        """Gradient dimensionality ``d``."""
        return int(self.gradient.shape[0])


__all__ = ["GradientMessage"]
