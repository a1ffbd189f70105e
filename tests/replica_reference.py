"""The replica loop, frozen as the reference oracle for the stacked exact pass.

Before every model ran on ``Sequential.stacked_loss_and_gradients``, a model
the pass could not stack (convolutions, Dropout) computed each honest
gradient on the worker's own model replica: the builder's lazy ``replica(k)``
factory made worker ``k``'s copy of the architecture on first read,
``HonestWorker.compute_gradient`` loaded the snapshot into it, drew the
worker's mini-batch and backpropagated, and the replica branch of
``BaseTrainer._exact_gradients`` called it for each worker of a run in
worker order, pricing each at its replica's measured forward flops.  Those
three bodies are below; they are the definition of "bit-identical" for the
stacked pass: ``tests/test_stacked_trainer.py`` trains every registered
model on both, in both engines, and requires equal (``==``) telemetry
exports, final parameters and resumed checkpoints.

NOTE (the only edits): a replica is a deep copy of the trainer's
``eval_model`` (the builder no longer keeps the factory's model arguments;
the initial weights of a replica were never read, every gradient loads a
snapshot first), and its Dropout layers draw from the worker's own
``dropout_rng`` — the mask stream the stacked pass reads — instead of a
stream derived from the replica's build.  A replica's forward flops reach
the live pricing through ``trainer._stacked_flops``, the value the stacked
pass stores, instead of ``HonestWorker.flops_per_sample``.

What the grid checks is the pass's own work — slicing the run, broadcasting
a shared snapshot, per-worker streams, the generic layer loop and the
trainer's wiring — against one model per worker.  ``Conv2D.forward`` /
``backward`` and ``Dropout.forward`` are the run of one of those layers'
stacked forms, so their per-slice math is held elsewhere: ``LoopConv2D`` in
``tests/nn_testing.py`` (to tolerance), the one-stacked-``matmul`` slice test
in ``tests/test_conv_im2col.py`` and the channel-major layout pin in
``tests/test_stacked_pass.py`` (to the bit).
"""

from __future__ import annotations

import copy
from functools import partial

import numpy as np

from repro.cluster.message import GradientMessage
from repro.nn.layers import Dropout


def replica(trainer, worker):
    """*worker*'s model replica, built the first time it is asked for."""
    replicas = trainer.__dict__.setdefault("_replicas", {})
    if worker.worker_id not in replicas:
        model = copy.deepcopy(trainer.eval_model)
        for layer in model.layers:
            if isinstance(layer, Dropout):
                layer._rng = worker.dropout_rng
        replicas[worker.worker_id] = model
    return replicas[worker.worker_id]


def compute_gradient(trainer, worker, parameters, step, batch=None):
    """One gradient estimation: load the broadcast model, sample, backprop."""
    model = replica(trainer, worker)
    model.set_parameters(parameters)
    batch_x, batch_y = worker.sampler.sample() if batch is None else batch
    loss, gradient = model.loss_and_gradient(batch_x, batch_y)
    trainer._stacked_flops = model.flops_per_sample()
    return GradientMessage(worker_id=worker.worker_id, step=step, gradient=gradient, loss=loss)


def exact_gradients(trainer, workers, snapshots, batch=None):
    """The replica branch of ``BaseTrainer._exact_gradients``: one replica per worker."""
    messages = [
        compute_gradient(
            trainer, worker, parameters, version,
            None if batch is None else (batch[0][i], batch[1][i]),
        )
        for i, (worker, (version, parameters)) in enumerate(zip(workers, snapshots))
    ]
    losses = np.array([m.loss for m in messages])
    return losses, np.stack([m.gradient for m in messages], axis=0)


def as_replica_loop(trainer):
    """Compute every honest gradient of *trainer* (either engine) on the replica loop."""
    trainer._exact_gradients = partial(exact_gradients, trainer)
    return trainer


__all__ = ["replica", "compute_gradient", "exact_gradients", "as_replica_loop"]
