"""Worker processes of the simulated cluster.

Honest workers draw their own iid mini-batches (and Dropout masks) and hold
no model: every honest gradient of a run comes from :func:`compute_stacked`,
one stacked exact pass of the deployment's model over the run, as arrays.
Byzantine workers are controlled by an :mod:`repro.attacks` attack object
(which, per the threat model, may observe every honest gradient before
crafting its own); :func:`craft_fleet` serves a whole run of them from one
joint craft.
"""

from __future__ import annotations

import abc
import math
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.message import GradientMessage
from repro.data.sampler import MiniBatchSampler
from repro.exceptions import ConfigurationError
from repro.nn.model import Sequential
from repro.utils.random import SeedLike, as_rng, component_seed


class Worker(abc.ABC):
    """Base class for all workers (honest or Byzantine).

    Parameters
    ----------
    worker_id:
        Index of the worker in the cluster.
    speed:
        Relative compute-throughput multiplier of this worker (1.0 = the cost
        model's nominal hardware).  Values below 1 make the worker a
        *persistent* straggler — as opposed to the transient stragglers drawn
        by :class:`~repro.cluster.cost_model.StragglerModel` — which the
        quorum-based synchrony policies are designed to route around.
    """

    def __init__(self, worker_id: int, *, speed: float = 1.0) -> None:
        if worker_id < 0:
            raise ConfigurationError(f"worker_id must be non-negative, got {worker_id}")
        if not 0 < speed < math.inf:  # false for NaN too
            raise ConfigurationError(f"speed must be positive and finite, got {speed}")
        self.worker_id = int(worker_id)
        self.speed = float(speed)

    @property
    @abc.abstractmethod
    def is_byzantine(self) -> bool:
        """Whether this worker is controlled by the adversary."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(id={self.worker_id})"


class HonestWorker(Worker):
    """A correct worker: computes an unbiased gradient estimate each step.

    The estimate is this worker's row of one :func:`compute_stacked` pass
    over a run of workers — the deployment's model run on the worker's own
    snapshot, mini-batch and Dropout stream.  A worker holds no model.

    Parameters
    ----------
    worker_id:
        Index of the worker in the cluster.
    sampler:
        The worker's private mini-batch sampler.  "Corrupted data" workers
        (Figure 7) are honest workers whose sampler draws from a corrupted
        copy of the dataset.
    dropout_rng:
        Seed or generator of the worker's Dropout masks, or a zero-argument
        callable returning it (the builder's per-worker stream), called the
        first time something reads :attr:`dropout_rng` — only a model with
        a Dropout layer does.  Omitted: a deterministic stream named after
        the worker.
    """

    def __init__(
        self, worker_id: int, sampler: MiniBatchSampler, *, speed: float = 1.0,
        dropout_rng: Union[SeedLike, Callable[[], np.random.Generator]] = None,
    ) -> None:
        super().__init__(worker_id, speed=speed)
        self.sampler = sampler
        self._make_dropout_rng = dropout_rng if callable(dropout_rng) else (
            lambda: as_rng(component_seed(dropout_rng, f"dropout:{self.worker_id}"))
        )

    @cached_property
    def dropout_rng(self) -> np.random.Generator:
        """The stream this worker's Dropout masks come from, in forward order."""
        return self._make_dropout_rng()

    @property
    def is_byzantine(self) -> bool:
        return False

    @property
    def batch_size(self) -> int:
        """Mini-batch size used by this worker."""
        return self.sampler.batch_size


class ByzantineWorker(Worker):
    """A worker controlled by the adversary.

    The actual gradient it submits is produced by an attack object (see
    :mod:`repro.attacks`), potentially as a function of every honest
    gradient — the trainer passes those in, honouring the threat model's
    omniscient adversary.
    """

    def __init__(self, worker_id: int, attack, *, rng: SeedLike = None) -> None:
        # The adversary has unbounded compute, so a Byzantine worker's speed
        # never matters; it is fixed at the nominal 1.0.
        super().__init__(worker_id)
        if not hasattr(attack, "craft"):
            raise ConfigurationError(
                f"attack object {attack!r} must expose a craft(parameters, honest_gradients, "
                "num_byzantine, rng) method"
            )
        self.attack = attack
        # Omitted rng falls back to a deterministic named stream — fresh
        # entropy inside the cluster layer would void replay (SIM201).
        self._rng = as_rng(component_seed(rng, "byzantine-worker"))

    @property
    def is_byzantine(self) -> bool:
        return True

    def craft_gradient(
        self,
        parameters: np.ndarray,
        honest_gradients: np.ndarray,
        step: int,
        *,
        num_byzantine: int = 1,
        index: int = 0,
    ) -> GradientMessage:
        """Craft this worker's malicious gradient for the current step.

        *index* selects this worker's row when the attack crafts all
        ``num_byzantine`` Byzantine gradients jointly (colluding adversary).
        ``step`` is the model version the crafted gradient claims to be
        computed on — in the event-driven engine the adversary always stamps
        the server's *current* version, so its gradients are never rejected
        as stale.

        The event-driven engine can fire a Byzantine worker before any
        honest traffic exists; an empty observation window degrades to a
        single zero row so attacks never see a zero-length matrix.
        """
        honest_gradients = np.asarray(honest_gradients, dtype=np.float64)
        if honest_gradients.size == 0:
            honest_gradients = np.zeros((1, np.asarray(parameters).size))
        crafted = self.attack.craft(
            parameters=np.asarray(parameters, dtype=np.float64),
            honest_gradients=honest_gradients,
            num_byzantine=num_byzantine,
            rng=self._rng,
        )
        crafted = np.atleast_2d(np.asarray(crafted, dtype=np.float64))
        row = crafted[min(index, crafted.shape[0] - 1)]
        return GradientMessage(worker_id=self.worker_id, step=step, gradient=row, loss=float("nan"))


def compute_stacked(
    snapshots: Sequence[Tuple[int, np.ndarray]],
    model: Sequential,
    batch: Tuple[np.ndarray, np.ndarray],
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Every honest gradient of a run from one stacked exact pass.

    Worker ``i`` of the run computes on ``snapshots[i] = (version,
    parameters)``, the mini-batch ``(batch[0][i], batch[1][i])`` — its own
    draw (:func:`~repro.data.sampler.sample_stacked`) or its row of a
    fleet-wide one — and, for a model with Dropout, the mask stream
    ``rngs[i]``.  *model* is the deployment's architecture:
    :meth:`~repro.nn.model.Sequential.stacked_loss_and_gradients` runs it
    for every worker at once, reading and writing none of its parameters.
    Returns ``(losses, gradients, flops_per_sample)`` in worker order —
    arrays, no message per worker: the lock-step step carries them into its
    arrival batch as they are — and the forward flops per sample the
    trainer prices every worker at.
    """
    return model.stacked_loss_and_gradients(
        [parameters for _, parameters in snapshots], *batch, rngs
    )


def craft_fleet(
    byzantine_workers,
    parameters: np.ndarray,
    honest_gradients: np.ndarray,
    step: int,
):
    """Craft every Byzantine gradient for one version in one attack call.

    The colluding adversary of the threat model crafts all ``f`` rows
    jointly anyway — the per-worker path just re-runs the same joint craft
    ``f`` times and keeps a different row each time.  When every worker
    shares one attack object (the builder always wires it that way) and the
    attack is :attr:`~repro.attacks.base.Attack.deterministic` (no RNG draw
    on the non-empty-honest path), a single ``craft`` call is bit-identical
    to the ``f`` sequential calls: no RNG state advances between them, so
    every call would return the same ``(f, d)`` matrix.  Attacks that draw
    noise per call fall back to the per-worker loop, which preserves their
    per-worker RNG stream consumption exactly.

    Returns the per-worker :class:`GradientMessage` list in worker order —
    the same messages, bytes and NaN losses the loop mints.
    """
    workers = list(byzantine_workers)
    if not workers:
        return []
    attack = workers[0].attack
    batched = getattr(attack, "deterministic", False) and all(
        w.attack is attack for w in workers
    )
    num_byzantine = len(workers)
    if not batched:
        return [
            worker.craft_gradient(
                parameters, honest_gradients, step,
                num_byzantine=num_byzantine, index=index,
            )
            for index, worker in enumerate(workers)
        ]
    honest_gradients = np.asarray(honest_gradients, dtype=np.float64)
    if honest_gradients.size == 0:
        # Same degenerate-window substitution craft_gradient applies.
        honest_gradients = np.zeros((1, np.asarray(parameters).size))
    crafted = attack.craft(
        parameters=np.asarray(parameters, dtype=np.float64),
        honest_gradients=honest_gradients,
        num_byzantine=num_byzantine,
        rng=workers[0]._rng,
    )
    crafted = np.atleast_2d(np.asarray(crafted, dtype=np.float64))
    return [
        GradientMessage(
            worker_id=worker.worker_id,
            step=step,
            gradient=crafted[min(index, crafted.shape[0] - 1)],
            loss=float("nan"),
        )
        for index, worker in enumerate(workers)
    ]


__all__ = ["Worker", "HonestWorker", "ByzantineWorker", "compute_stacked", "craft_fleet"]
