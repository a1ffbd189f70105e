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


class ChildStreams:
    """The *count* independent child streams of one seed, each built on first index.

    Stream ``i`` is a function of ``(seed, i)`` alone: for an integer seed it
    is seeded by ``SeedSequence(entropy, spawn_key=parent.spawn_key + (i,))``,
    the very child :meth:`numpy.random.SeedSequence.spawn` builds, so it is
    bit-identical whether or not any other stream was ever made.  Indexing
    twice returns the same ``Generator`` object.  What fixes the parent's own
    state stays eager: a ``Generator`` parent draws its *count* child seeds
    here, and a caller's ``SeedSequence`` advances ``n_children_spawned``.
    """

    def __init__(self, seed: SeedLike, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._count = int(count)
        self._made: dict[int, np.random.Generator] = {}
        if isinstance(seed, np.random.Generator):
            # Derive children by drawing fresh seed material from the generator.
            seeds = seed.integers(0, 2**63 - 1, size=count)
            self._child_seed = lambda i: int(seeds[i])
            return
        first = 0
        if isinstance(seed, np.random.SeedSequence):
            first = seed.n_children_spawned
            seed.spawn(count)  # the counter is read-only: spawning is what advances it
        else:
            seed = np.random.SeedSequence(_checked(seed))
        self._child_seed = lambda i: np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key + (first + i,), pool_size=seed.pool_size
        )

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> np.random.Generator:
        if not 0 <= index < self._count:
            raise IndexError(f"stream {index} of {self._count}")
        if index not in self._made:
            self._made[index] = np.random.default_rng(self._child_seed(index))
        return self._made[index]


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive *count* independent generators from a single seed.

    Independence is provided by :class:`numpy.random.SeedSequence` spawning,
    so each worker / channel in a simulated cluster observes its own stream
    while the whole experiment stays reproducible from one integer.  The
    eager form of :class:`ChildStreams`, for callers that use every stream.
    """
    return list(ChildStreams(seed, count))


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


__all__ = ["SeedLike", "as_rng", "ChildStreams", "spawn_rngs", "derive_seed", "component_seed", "fresh_rng"]
