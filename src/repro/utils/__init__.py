"""Shared utilities: validation, deterministic RNG handling, flattening."""

from repro.utils.random import as_rng, component_seed, fresh_rng, spawn_rngs
from repro.utils.validation import (
    check_positive_int,
    check_probability,
    stack_gradients,
)
from repro.utils.flatten import flatten_arrays, unflatten_array

__all__ = [
    "as_rng",
    "component_seed",
    "fresh_rng",
    "spawn_rngs",
    "check_positive_int",
    "check_probability",
    "stack_gradients",
    "flatten_arrays",
    "unflatten_array",
]
