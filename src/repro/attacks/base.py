"""Attack base class and registry."""

from __future__ import annotations

import abc
from typing import Callable, Dict, Type

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.random import as_rng
from repro.utils.validation import make_registered


class Attack(abc.ABC):
    """Crafts the gradients of the ``f`` colluding Byzantine workers.

    Subclasses implement :meth:`_craft` returning a ``(num_byzantine, d)``
    matrix; the public :meth:`craft` validates shapes and handles the
    degenerate case of an empty honest-gradient matrix.
    """

    name: str = "abstract"

    #: Whether :meth:`_craft` is a pure function of ``(parameters,
    #: honest_gradients, num_byzantine)`` when the honest matrix is
    #: non-empty — i.e. it never consumes the RNG stream on that path.
    #: Deterministic attacks are eligible for the trainers' batched
    #: crafting fast path: one ``craft`` call mints all ``f`` rows, which
    #: is bit-identical to ``f`` per-worker calls precisely because no RNG
    #: state advances between them.  Attacks that draw noise per row
    #: (``random``, ``scaled-noise``, ``non-finite``) must leave this
    #: ``False`` so the trainers fall back to the per-worker loop.
    deterministic: bool = False

    def craft(
        self,
        parameters: np.ndarray,
        honest_gradients: np.ndarray,
        num_byzantine: int,
        rng=None,
    ) -> np.ndarray:
        """Return the ``(num_byzantine, d)`` Byzantine gradients for this step."""
        parameters = np.asarray(parameters, dtype=np.float64).ravel()
        honest_gradients = np.atleast_2d(np.asarray(honest_gradients, dtype=np.float64))
        if num_byzantine < 1:
            raise ConfigurationError(f"num_byzantine must be >= 1, got {num_byzantine}")
        d = parameters.size if honest_gradients.size == 0 else honest_gradients.shape[1]
        if d == 0:
            raise ConfigurationError("cannot craft gradients of dimension 0")
        crafted = self._craft(parameters, honest_gradients, int(num_byzantine), as_rng(rng))
        crafted = np.atleast_2d(np.asarray(crafted, dtype=np.float64))
        if crafted.shape != (num_byzantine, d):
            raise ConfigurationError(
                f"{type(self).__name__} crafted shape {crafted.shape}, expected "
                f"({num_byzantine}, {d})"
            )
        return crafted

    @abc.abstractmethod
    def _craft(
        self,
        parameters: np.ndarray,
        honest_gradients: np.ndarray,
        num_byzantine: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Produce the Byzantine gradient matrix."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: name -> attack class (``--attack`` analogue).
ATTACK_REGISTRY: Dict[str, Type[Attack]] = {}


def register_attack(name: str) -> Callable[[Type[Attack]], Type[Attack]]:
    """Decorator registering an attack class under *name*."""

    def decorator(cls: Type[Attack]) -> Type[Attack]:
        existing = ATTACK_REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ConfigurationError(f"attack name {name!r} already registered")
        cls.name = name
        ATTACK_REGISTRY[name] = cls
        return cls

    return decorator


def make_attack(name: str, **kwargs) -> Attack:
    """Instantiate a registered attack by name."""
    return make_registered(ATTACK_REGISTRY, "attack", name, kwargs)


__all__ = ["Attack", "ATTACK_REGISTRY", "register_attack", "make_attack"]
