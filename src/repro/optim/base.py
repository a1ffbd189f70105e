"""Optimizer base class and registry.

Optimizers operate on flat parameter vectors — the representation the
parameter server holds — and are driven by a learning-rate schedule
(:mod:`repro.optim.schedules`).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Type, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optim.schedules import FixedSchedule, LearningRateSchedule
from repro.utils.validation import make_registered


class Optimizer(abc.ABC):
    """Stateful update rule ``x_{k+1} = x_k - step(gradient, k)``.

    Parameters
    ----------
    learning_rate:
        A float (constant learning rate) or a
        :class:`~repro.optim.schedules.LearningRateSchedule`.
    """

    name: str = "abstract"

    def __init__(self, learning_rate: Union[float, LearningRateSchedule] = 1e-3) -> None:
        if isinstance(learning_rate, LearningRateSchedule):
            self.schedule = learning_rate
        else:
            lr = float(learning_rate)
            if lr <= 0:
                raise ConfigurationError(f"learning_rate must be positive, got {lr}")
            self.schedule = FixedSchedule(lr)
        self.step_count = 0

    def learning_rate(self) -> float:
        """Learning rate at the current step."""
        return self.schedule(self.step_count)

    def step(self, parameters: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Apply one update and return the new parameter vector.

        Both inputs are flat ``(d,)`` vectors; the returned array is new (the
        inputs are never modified in place), matching the server semantics of
        broadcasting a fresh model each step.
        """
        parameters = np.asarray(parameters, dtype=np.float64)
        gradient = np.asarray(gradient, dtype=np.float64)
        if parameters.shape != gradient.shape:
            raise ConfigurationError(
                f"parameter shape {parameters.shape} != gradient shape {gradient.shape}"
            )
        update = self._update(gradient)
        self.step_count += 1
        return parameters - update

    @abc.abstractmethod
    def _update(self, gradient: np.ndarray) -> np.ndarray:
        """Compute the (already learning-rate-scaled) update vector."""

    def reset(self) -> None:
        """Clear all internal state (moments, accumulators, step count)."""
        self.step_count = 0

    # --------------------------------------------------------- checkpointing
    def state_dict(self) -> Dict[str, object]:
        """All mutable state (step count, moment vectors) in copyable form.

        Hyper-parameters and the learning-rate schedule are configuration,
        not state — a restored optimizer is expected to have been constructed
        with the same configuration.
        """
        state: Dict[str, object] = {}
        for key, value in self.__dict__.items():
            if key == "schedule":
                continue
            if isinstance(value, np.ndarray):
                state[key] = value.copy()
            elif value is None or isinstance(value, (bool, int, float, str)):
                state[key] = value
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        for key, value in state.items():
            if key == "schedule" or not hasattr(self, key):
                raise ConfigurationError(
                    f"{type(self).__name__} has no state slot {key!r}; was the "
                    "checkpoint written by a different optimizer?"
                )
            setattr(self, key, value.copy() if isinstance(value, np.ndarray) else value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(lr={self.schedule!r})"


#: name -> optimizer class registry (``--optimizer`` analogue).
OPTIMIZER_REGISTRY: Dict[str, Type[Optimizer]] = {}


def register_optimizer(name: str) -> Callable[[Type[Optimizer]], Type[Optimizer]]:
    """Decorator registering an optimizer class under *name*."""

    def decorator(cls: Type[Optimizer]) -> Type[Optimizer]:
        existing = OPTIMIZER_REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ConfigurationError(f"optimizer name {name!r} already registered")
        cls.name = name
        OPTIMIZER_REGISTRY[name] = cls
        return cls

    return decorator


def make_optimizer(name: str, **kwargs) -> Optimizer:
    """Instantiate a registered optimizer by name."""
    return make_registered(OPTIMIZER_REGISTRY, "optimizer", name, kwargs)


__all__ = ["Optimizer", "OPTIMIZER_REGISTRY", "register_optimizer", "make_optimizer"]
