"""The parent commit's eager deployment construction, frozen as a reference oracle.

Before ``build_trainer`` became lazy it made every child stream of the master
seed up front (``spawn_rngs(seed, 2n + 7)``, one ``Generator`` per position)
and called the model factory once per honest worker inside the worker loop.
``src/`` now derives stream ``i`` when it is first indexed
(:class:`repro.utils.random.ChildStreams`) and builds worker ``k``'s replica
when something first reads ``worker.model`` — after every lower id's.  The two
eager bodies below are the parent's, verbatim, and they are the definition of
"bit-identical" for the lazy build: ``tests/test_builder_lazy.py`` holds every
stream position, a {mode} x {compute} x {model} x {links} x {seed kind} grid
of whole runs, an out-of-order replica case and a checkpoint round trip to
``==`` against them.  Do not edit the bodies below.

:func:`spawn_rngs` is ``repro/utils/random.py::spawn_rngs`` as it stood (it
borrows the live ``_checked`` seed guard: a refusal, not a derivation).
:func:`as_eager_reference` is the slice of
``repro/cluster/builder.py::build_trainer`` from ``rngs = spawn_rngs(...)`` to
the end of the worker loop, kept to the lines that make a stream or a model,
and *applied to a built trainer*: each honest worker's sampler stream and
model replica are overwritten with the eagerly made ones.  It therefore needs
a seed and a model factory *equal to but distinct from* the ones the trainer
was built with — a ``Generator``, a ``SeedSequence`` or a stateful factory is
consumed by a build.
"""

from __future__ import annotations

import numpy as np

from repro.nn.models.registry import make_model
from repro.utils.random import _checked


def spawn_rngs(seed, count):
    """Derive *count* independent generators from a single seed (the parent's)."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh seed material from the generator.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(_checked(seed))
    return [np.random.default_rng(child) for child in seed.spawn(count)]


def as_eager_reference(trainer, *, seed, model, model_kwargs=None):
    """Overwrite *trainer*'s sampler streams and replicas with the parent's eager ones.

    Call it on a freshly built trainer, before anything drew from a sampler
    or read a replica.  Returns the trainer; the server's initial parameters
    are checked against the eagerly built server model on the way (the
    ``model_rng`` position and the factory's first call).
    """
    workers = trainer.workers
    num_workers = len(workers)
    rngs = spawn_rngs(seed, num_workers * 2 + 7)
    worker_rngs = rngs[:num_workers]
    channel_rngs = rngs[num_workers : 2 * num_workers]  # noqa: F841 (the parent's slice)
    (
        corruption_rng,
        attack_rng,
        model_rng,
        straggler_rng,
        codec_rng,
        broadcast_rng,
        fleet_sample_rng,
    ) = rngs[2 * num_workers :]

    def build_model():
        kwargs = dict(model_kwargs or {})
        if callable(model) and not isinstance(model, str):
            return model(**kwargs)
        kwargs.setdefault("rng", model_rng)
        return make_model(str(model), **kwargs)

    server_model = build_model()
    eval_model = build_model()  # noqa: F841 (the evaluator's call keeps its place)
    assert np.array_equal(server_model.get_parameters(), trainer.server.parameters)

    for worker_id in range(num_workers):
        worker = workers[worker_id]
        if worker.is_byzantine:
            continue
        worker.sampler._rng = worker_rngs[worker_id]
        worker_model = build_model()
        worker.model = worker_model

    # NOTE: this used to re-make the trainer's fleet compute kernel on the
    # first eager replica, because that kernel borrowed worker 0's replica.
    # The kernel is gone: fleet mode runs the stacked pass, which reads no
    # replica, so nothing else has to follow the replicas.
    return trainer


__all__ = ["spawn_rngs", "as_eager_reference"]
