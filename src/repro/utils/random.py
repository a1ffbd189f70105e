"""Deterministic random-number-generator plumbing.

Every stochastic component of the library (datasets, workers, channels,
attacks) accepts either a seed, an existing :class:`numpy.random.Generator`,
or ``None``.  Centralising the coercion here keeps experiments reproducible:
an experiment seeded once can deterministically derive independent streams for
each worker and each channel through :func:`spawn_rngs`.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def _checked(seed: SeedLike) -> SeedLike:
    """*seed*, after refusing the negative integers numpy rejects with a bare ``ValueError``."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    return seed


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_checked(seed))


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive *count* independent generators from a single seed.

    Independence is provided by :class:`numpy.random.SeedSequence` spawning,
    so each worker / channel in a simulated cluster observes its own stream
    while the whole experiment stays reproducible from one integer.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh seed material from the generator.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(_checked(seed))
    return [np.random.default_rng(child) for child in seed.spawn(count)]


#: Fixed namespace for :func:`component_seed` defaults.  The value is
#: arbitrary but frozen: changing it changes every implicit component
#: stream, which is a replay-breaking event.
_COMPONENT_NAMESPACE = 0x51AB


def component_seed(rng: SeedLike, component: str) -> SeedLike:
    """Deterministic default seed policy for library components.

    Components in ``cluster/`` / ``core/`` must never mint fresh-entropy
    generators implicitly (simlint rule SIM201): a caller who omits ``rng``
    gets a *deterministic* stream derived from the component's name instead
    of OS entropy.  An explicitly provided seed/generator passes through
    unchanged, so the builder's named-stream tree is unaffected.

    Fresh entropy remains available — but only through the explicit
    :func:`fresh_rng`, i.e. from deliberate user intent at the runner/CLI
    layer, never as a silent default.
    """
    if rng is None:
        return derive_seed(_COMPONENT_NAMESPACE, component)
    return rng


def fresh_rng() -> np.random.Generator:
    """A generator seeded from OS entropy — *explicit* user intent only.

    This is the single sanctioned way to obtain a non-reproducible stream
    (e.g. a runner flag that deliberately randomises a demo).  Library code
    must not call it; simulations derive every stream from the master seed.
    """
    return np.random.default_rng(np.random.SeedSequence())


def derive_seed(seed: SeedLike, *tags: Union[int, str]) -> int:
    """Derive a stable integer sub-seed from *seed* and a sequence of tags.

    Useful when a component needs a scalar seed (rather than a Generator),
    e.g. to label an experiment run.
    """
    material: Sequence[int] = []
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**32 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        base = int(seed.generate_state(1)[0])
    elif seed is None:
        base = int(np.random.SeedSequence().generate_state(1)[0])
    else:
        base = int(_checked(seed))
    material = [base]
    for tag in tags:
        if isinstance(tag, str):
            material.append(sum(ord(c) * (31**i % 97) for i, c in enumerate(tag)) & 0xFFFFFFFF)
        else:
            material.append(int(tag) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(material).generate_state(1)[0])


__all__ = ["SeedLike", "as_rng", "spawn_rngs", "derive_seed", "component_seed", "fresh_rng"]
