"""Draco baseline: Byzantine resilience via redundant gradient computation.

Draco (Chen et al., 2018) takes an information-theoretic route: instead of
filtering gradients at the server, every mini-batch gradient is computed
redundantly by ``r = 2f + 1`` workers (the *repetition* code, which the paper
reports works better than the cyclic code and is what our comparison uses),
and the server decodes each group by majority vote — with at most ``f``
Byzantine workers per group, the honest value always wins.

Costs, mirroring the paper's discussion:

* every worker computes ``r`` gradients per step instead of one, so the
  per-step compute time is roughly ``r`` times AggregaThor's — this is why
  Draco's throughput is an order of magnitude lower in Figure 5;
* encoding/decoding adds server-side work linear in ``n * d``;
* the scheme requires all workers in a group to agree on the *exact same*
  mini-batch (data ordering agreement), which AggregaThor does not need —
  the privacy limitation discussed in §5.

The implementation reuses the same model / dataset / optimizer substrates as
the AggregaThor trainer, so Figure 3/5/6 comparisons are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.attacks.base import Attack, make_attack
from repro.cluster.clock import SimulatedClock
from repro.cluster.cost_model import CostModel
from repro.cluster.telemetry import EvalRecord, StepRecord, TrainingHistory
from repro.data.dataset import Dataset
from repro.data.sampler import MiniBatchSampler
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.model import Sequential
from repro.nn.models.registry import make_model
from repro.optim.base import Optimizer, make_optimizer
from repro.utils.random import SeedLike, spawn_rngs


def majority_vote(vectors: np.ndarray, *, atol: float = 1e-9) -> np.ndarray:
    """Decode one redundancy group: return the value submitted by a majority.

    Vectors are grouped by (near-)equality; the largest group wins.  With
    ``r = 2f + 1`` replicas and at most ``f`` Byzantine ones, the honest value
    always has a strict majority.  Raises :class:`TrainingError` when no value
    reaches a strict majority (more Byzantine replicas than the code tolerates).
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    r = vectors.shape[0]
    counts = np.zeros(r, dtype=int)
    for i in range(r):
        for j in range(r):
            if np.allclose(vectors[i], vectors[j], atol=atol, equal_nan=False):
                counts[i] += 1
    winner = int(np.argmax(counts))
    if counts[winner] * 2 <= r:
        raise TrainingError(
            "majority-vote decoding failed: no value was submitted by a strict majority "
            "of the group's replicas"
        )
    return vectors[winner].copy()


@dataclass
class RepetitionCode:
    """The (2f+1)-repetition assignment of batches to workers.

    ``num_groups = floor(n / r)`` groups of ``r`` workers each; workers beyond
    ``num_groups * r`` are idle (exactly as unused redundancy in Draco).
    Every worker in a group computes the gradient of the *same* mini-batch.
    """

    num_workers: int
    f: int

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ConfigurationError(f"f must be non-negative, got {self.f}")
        if self.num_workers < self.redundancy:
            raise ConfigurationError(
                f"Draco with f={self.f} needs at least {self.redundancy} workers, "
                f"got {self.num_workers}"
            )

    @property
    def redundancy(self) -> int:
        """Replication factor ``r = 2f + 1``."""
        return 2 * self.f + 1

    @property
    def num_groups(self) -> int:
        """Number of distinct mini-batches decoded per step."""
        return self.num_workers // self.redundancy

    def members(self, group: int) -> List[int]:
        """Worker ids belonging to *group*."""
        if group < 0 or group >= self.num_groups:
            raise ConfigurationError(f"group {group} out of range")
        start = group * self.redundancy
        return list(range(start, start + self.redundancy))


@dataclass
class DracoConfig:
    """Configuration of a Draco training run."""

    num_workers: int = 19
    f: int = 4
    batch_size: int = 100
    max_steps: int = 100
    eval_every: int = 10
    learning_rate: float = 1e-3
    optimizer: str = "rmsprop"
    momentum: float = 0.9
    encode_decode_overhead: float = 4.0  #: server-side flops per coordinate per worker

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1")
        if self.eval_every < 0:
            raise ConfigurationError("eval_every must be >= 0")


class DracoTrainer:
    """Synchronous Draco training on the simulated cluster substrate.

    Parameters
    ----------
    model, model_kwargs:
        Registered model name (or factory) shared by all workers.
    dataset:
        Training/test data.
    config:
        Draco hyper-parameters (worker count, ``f``, batch size, ...).
    attack, attack_kwargs:
        Byzantine behaviour of the ``num_byzantine`` compromised workers
        (default: the reversed-gradient adversary the Draco paper uses).
    num_byzantine:
        How many workers actually misbehave (must be ``<= f`` per group for
        decoding to succeed; the repetition code tolerates ``f`` per group).
    """

    def __init__(
        self,
        *,
        model: Union[str, callable] = "mlp",
        model_kwargs: Optional[dict] = None,
        dataset: Dataset,
        config: DracoConfig,
        cost_model: Optional[CostModel] = None,
        attack: Union[None, str, Attack] = "reversed-gradient",
        attack_kwargs: Optional[dict] = None,
        num_byzantine: int = 0,
        seed: SeedLike = 0,
    ) -> None:
        self.config = config
        self.code = RepetitionCode(config.num_workers, config.f)
        self.dataset = dataset
        self.cost_model = cost_model if cost_model is not None else CostModel()
        if num_byzantine < 0 or num_byzantine > config.f:
            raise ConfigurationError(
                f"num_byzantine must be in [0, f={config.f}] for Draco decoding to succeed, "
                f"got {num_byzantine}"
            )
        self.num_byzantine = int(num_byzantine)
        if isinstance(attack, Attack) or attack is None:
            self.attack = attack
        else:
            self.attack = make_attack(str(attack), **(attack_kwargs or {}))
        if self.num_byzantine > 0 and self.attack is None:
            raise ConfigurationError("num_byzantine > 0 requires an attack")

        rngs = spawn_rngs(seed, self.code.num_groups + 3)
        self._group_rngs = rngs[: self.code.num_groups]
        model_rng, self._attack_rng, _spare = rngs[self.code.num_groups :]

        def build_model() -> Sequential:
            kwargs = dict(model_kwargs or {})
            if callable(model) and not isinstance(model, str):
                return model(**kwargs)
            kwargs.setdefault("rng", model_rng)
            return make_model(str(model), **kwargs)

        self.worker_model = build_model()
        self.eval_model = build_model()
        self.parameters = self.worker_model.get_parameters()
        if config.optimizer == "momentum":
            self.optimizer: Optimizer = make_optimizer(
                "momentum", learning_rate=config.learning_rate, momentum=config.momentum
            )
        else:
            self.optimizer = make_optimizer(config.optimizer, learning_rate=config.learning_rate)
        self.samplers = [
            MiniBatchSampler(dataset.train_x, dataset.train_y, config.batch_size, rng=rng)
            for rng in self._group_rngs
        ]
        self.clock = SimulatedClock()
        self.history = TrainingHistory()
        # The compromised worker ids: spread across groups (at most f per group
        # is guaranteed because num_byzantine <= f <= group size // 2).
        self.byzantine_ids = set(range(self.num_byzantine))

    # ------------------------------------------------------------------ step
    def run_step(self) -> StepRecord:
        """One Draco step: redundant compute, majority-vote decode, average, update."""
        dim = self.parameters.size
        step = len(self.history.steps)
        group_gradients: List[np.ndarray] = []
        losses: List[float] = []

        # Honest gradient of each group (computed once — all honest replicas of a
        # group produce the identical value because they share the mini-batch).
        for group in range(self.code.num_groups):
            batch_x, batch_y = self.samplers[group].sample()
            self.worker_model.set_parameters(self.parameters)
            loss, honest_gradient = self.worker_model.loss_and_gradient(batch_x, batch_y)
            losses.append(loss)

            replicas = np.tile(honest_gradient, (self.code.redundancy, 1))
            members = self.code.members(group)
            byz_members = [i for i, w in enumerate(members) if w in self.byzantine_ids]
            if byz_members and self.attack is not None:
                crafted = self.attack.craft(
                    parameters=self.parameters,
                    honest_gradients=honest_gradient[None, :],
                    num_byzantine=len(byz_members),
                    rng=self._attack_rng,
                )
                for row, member_index in enumerate(byz_members):
                    replicas[member_index] = crafted[row]
            group_gradients.append(majority_vote(replicas))

        aggregated = np.mean(group_gradients, axis=0)
        self.parameters = self.optimizer.step(self.parameters, aggregated)

        # --- simulated time ---------------------------------------------------
        # Every worker computes `redundancy` gradients per step (its group's
        # batch, replicated r times across the group per the repetition code).
        compute_time = self.code.redundancy * self.cost_model.gradient_compute_time(
            dim, self.config.batch_size,
            flops_per_sample=self.worker_model.flops_per_sample(),
        )
        comm_time = self.cost_model.round_trip_time(dim)
        decode_flops = (
            self.config.encode_decode_overhead * self.code.num_workers * dim
        )
        decode_time = decode_flops / (self.cost_model.server_gflops * 1e9)
        update_time = self.cost_model.update_time(dim)
        self.clock.advance(compute_time + comm_time + decode_time + update_time)

        record = StepRecord(
            step=step,
            sim_time=self.clock.now,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            compute_comm_time=compute_time + comm_time,
            aggregation_time=decode_time,
            update_time=update_time,
            gradients_received=self.code.num_groups,
        )
        self.history.record_step(record)
        return record

    # ------------------------------------------------------------------ eval
    def evaluate(self) -> float:
        """Top-1 cross-accuracy of the current model."""
        self.eval_model.set_parameters(self.parameters)
        return self.eval_model.accuracy(self.dataset.test_x, self.dataset.test_y)

    def run(self) -> TrainingHistory:
        """Run the configured number of steps and return the telemetry."""
        for _ in range(self.config.max_steps):
            try:
                self.run_step()
            except TrainingError as exc:
                self.history.mark_diverged(str(exc))
                break
            step = len(self.history.steps)
            if self.config.eval_every and step % self.config.eval_every == 0:
                self.history.record_evaluation(
                    EvalRecord(step=step, sim_time=self.clock.now, accuracy=self.evaluate())
                )
        if not self.history.diverged:
            step = len(self.history.steps)
            if not self.history.evaluations or self.history.evaluations[-1].step != step:
                self.history.record_evaluation(
                    EvalRecord(step=step, sim_time=self.clock.now, accuracy=self.evaluate())
                )
        return self.history


__all__ = ["majority_vote", "RepetitionCode", "DracoConfig", "DracoTrainer"]
