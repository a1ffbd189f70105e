"""Model registry (the ``--experiment`` analogue of AggregaThor's runner)."""

from __future__ import annotations

from typing import Callable, Dict

from repro.exceptions import ConfigurationError
from repro.nn.model import Sequential
from repro.utils.validation import make_registered

#: name -> factory returning a freshly initialised Sequential model.
MODEL_REGISTRY: Dict[str, Callable[..., Sequential]] = {}


def register_model(name: str):
    """Decorator registering a model factory under *name*."""

    def decorator(factory: Callable[..., Sequential]):
        existing = MODEL_REGISTRY.get(name)
        if existing is not None and existing is not factory:
            raise ConfigurationError(f"model name {name!r} already registered")
        MODEL_REGISTRY[name] = factory
        return factory

    return decorator


def make_model(name: str, **kwargs) -> Sequential:
    """Instantiate a registered model factory by name."""
    return make_registered(MODEL_REGISTRY, "model", name, kwargs)


def available_models() -> list[str]:
    """Names of all registered models, sorted."""
    return sorted(MODEL_REGISTRY)


__all__ = ["MODEL_REGISTRY", "register_model", "make_model", "available_models"]
