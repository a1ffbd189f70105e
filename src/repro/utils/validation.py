"""Input validation helpers shared across the library.

The gradient aggregation rules accept either a list of 1-D vectors (one per
worker) or a pre-stacked ``(n, d)`` matrix; :func:`stack_gradients` normalises
both forms and enforces shape agreement, which is where most user errors
surface.
"""

from __future__ import annotations

import inspect
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from repro.exceptions import AggregationError, ConfigurationError

GradientInput = Union[np.ndarray, Sequence[np.ndarray]]


def check_positive_int(value: int, name: str, *, minimum: int = 1) -> int:
    """Validate that *value* is an integer ``>= minimum`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_non_negative_int(value: int, name: str) -> int:
    """Validate that *value* is an integer ``>= 0`` and return it."""
    return check_positive_int(value, name, minimum=0)


def check_probability(value: float, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a float in [0, 1], got {value!r}") from exc
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return value


def make_registered(registry: Mapping[str, Callable], kind: str, name: str, kwargs: dict):
    """Call the factory registered under *name* with *kwargs*.

    The body of every ``make_*`` / ``load_dataset`` registry factory: names
    and keyword arguments arrive from outside (``--dataset-args bogus:3``),
    so an unregistered name and a keyword the factory does not take are both
    a :class:`ConfigurationError` — listing what is available / accepted —
    never a bare ``KeyError`` or ``TypeError``.
    """
    try:
        factory = registry[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; available: {', '.join(sorted(registry))}"
        ) from None
    try:
        return factory(**kwargs)
    except TypeError:
        # Looked up only on failure: the happy path builds a model per worker.
        accepted = inspect.signature(factory).parameters
        unexpected = sorted(set(kwargs) - set(accepted))
        if not unexpected or any(p.kind is p.VAR_KEYWORD for p in accepted.values()):
            raise
        raise ConfigurationError(
            f"{kind} {name!r} has no parameter {', '.join(map(repr, unexpected))}; "
            f"accepted: {', '.join(accepted) or '(none)'}"
        ) from None


def stack_gradients(gradients: GradientInput) -> np.ndarray:
    """Normalise worker gradients into a float ``(n, d)`` matrix.

    Accepts a 2-D array (returned as ``float64`` without copy when possible)
    or an iterable of 1-D arrays of identical length.  Raises
    :class:`AggregationError` on empty input or inconsistent shapes.
    """
    if isinstance(gradients, np.ndarray):
        if gradients.ndim != 2:
            raise AggregationError(
                f"expected a (n, d) gradient matrix, got array with shape {gradients.shape}"
            )
        if gradients.shape[0] == 0 or gradients.shape[1] == 0:
            raise AggregationError(f"gradient matrix must be non-empty, got shape {gradients.shape}")
        return np.asarray(gradients, dtype=np.float64)

    vectors = [np.asarray(g, dtype=np.float64).ravel() for g in gradients]
    if len(vectors) == 0:
        raise AggregationError("received an empty list of gradients")
    dim = vectors[0].shape[0]
    if dim == 0:
        raise AggregationError("gradients must have at least one coordinate")
    for i, vec in enumerate(vectors):
        if vec.shape[0] != dim:
            raise AggregationError(
                f"gradient {i} has dimension {vec.shape[0]}, expected {dim} (all workers "
                "must submit gradients for the same model)"
            )
    return np.stack(vectors, axis=0)


__all__ = [
    "GradientInput",
    "check_positive_int",
    "check_non_negative_int",
    "check_probability",
    "make_registered",
    "stack_gradients",
]
