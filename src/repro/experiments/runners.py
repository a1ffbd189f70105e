"""Shared plumbing for the experiment drivers: build and run one deployment.

:func:`run_deployment` is the one place a driver turns its profile into a
trained deployment; every driver passes only what its line-up varies on top.

A *system* (:func:`run_system`) is one of the curves of the paper's figures:

* ``"tf"`` — vanilla TensorFlow with built-in averaging (our ``average`` GAR
  on the baseline trainer; kept as a distinct label so result tables read
  like the paper's);
* ``"average"`` — AggregaThor deployed with plain averaging;
* ``"median"`` — AggregaThor with the coordinate-wise median GAR;
* ``"multi-krum"`` / ``"bulyan"`` — AggregaThor's weak / strong modes;
* ``"draco"`` — the Draco baseline (redundant gradients, majority decoding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines.draco import DracoConfig, DracoTrainer
from repro.cluster.builder import build_trainer
from repro.cluster.telemetry import TrainingHistory
from repro.cluster.trainer import BaseTrainer, TrainerConfig
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentProfile
from repro.nn.models.registry import make_model

#: Systems understood by :func:`run_system` and the GAR each maps onto.
SYSTEM_GARS: Dict[str, str] = {
    "tf": "average",
    "average": "average",
    "median": "median",
    "multi-krum": "multi-krum",
    "bulyan": "bulyan",
    "selective-average": "selective-average",
}


def run_deployment(
    profile: ExperimentProfile,
    dataset: Dataset,
    *,
    max_steps: Optional[int] = None,
    eval_every: Optional[int] = None,
    **keywords,
) -> BaseTrainer:
    """Build the profile's deployment, train it and return the trainer.

    The profile supplies the model, worker count, ``declared_f``, batch size,
    optimizer, learning rate, cost model and seed; *keywords* are further
    :func:`~repro.cluster.builder.build_trainer` keywords and override the
    profile's.  ``max_steps`` / ``eval_every`` default to the profile's.
    """
    trainer = build_trainer(
        **{
            "model": profile.model,
            "model_kwargs": profile.model_kwargs,
            "num_workers": profile.num_workers,
            "declared_f": profile.f,
            "batch_size": profile.batch_size,
            "optimizer": profile.optimizer,
            "learning_rate": profile.learning_rate,
            "cost_model": profile.cost_model,
            "seed": profile.seed,
            **keywords,
        },
        dataset=dataset,
    )
    trainer.run(
        TrainerConfig(
            max_steps=profile.max_steps if max_steps is None else int(max_steps),
            eval_every=profile.eval_every if eval_every is None else int(eval_every),
        )
    )
    return trainer


def resolve_k_fractions(
    profile: ExperimentProfile, entries: Sequence[tuple], key: str
) -> List[dict]:
    """Each line-up entry's keywords (its last field), a ``k_fraction`` turned into *key*.

    The fraction is of the profile model's dimensionality, read from one
    probe build (identical for every entry, made only when some entry gives
    a fraction), so a line-up stays meaningful for any profile.
    """
    dim = 0
    if any("k_fraction" in entry[-1] for entry in entries):
        dim = make_model(profile.model, rng=0, **dict(profile.model_kwargs)).num_parameters
    resolved = []
    for entry in entries:
        keywords = dict(entry[-1])
        fraction = keywords.pop("k_fraction", None)
        if fraction is not None:
            keywords[key] = max(1, int(dim * fraction))
        resolved.append(keywords)
    return resolved


def time_to_accuracy(results: Dict, threshold: float) -> Dict[str, Optional[float]]:
    """Earliest simulated time at which each line-up entry reached *threshold*."""
    return {
        r["label"]: r["history"].time_to_accuracy(threshold) for r in results["results"]
    }


def speedup_over_full_sync(results: Dict) -> Dict[str, float]:
    """Mean time per update of each line-up entry relative to ``full-sync`` (>1 = faster)."""
    by_label = {s["label"]: s["mean_step_time"] for s in results["summaries"]}
    base = by_label.get("full-sync")
    if base is None or base <= 0:
        return {}
    return {
        label: base / step_time if step_time > 0 else float("inf")
        for label, step_time in by_label.items()
    }


def run_system(
    profile: ExperimentProfile,
    system: str,
    dataset: Dataset,
    *,
    f: Optional[int] = None,
    num_workers: Optional[int] = None,
    num_byzantine: int = 0,
    attack: Optional[str] = None,
    attack_kwargs: Optional[dict] = None,
    corrupted_workers: int = 0,
    batch_size: Optional[int] = None,
    max_steps: Optional[int] = None,
    eval_every: Optional[int] = None,
    lossy_links: int = 0,
    lossy_drop_rate: float = 0.0,
    lossy_policy: str = "random-fill",
    model: Optional[str] = None,
    model_kwargs: Optional[dict] = None,
    seed_offset: int = 0,
) -> TrainingHistory:
    """Train one system under the given conditions and return its telemetry."""
    system = str(system).lower()
    f = profile.f if f is None else int(f)
    n = profile.num_workers if num_workers is None else int(num_workers)
    b = profile.batch_size if batch_size is None else int(batch_size)
    steps = profile.max_steps if max_steps is None else int(max_steps)
    evaluate_every = profile.eval_every if eval_every is None else int(eval_every)
    model_name = profile.model if model is None else model
    model_args = dict(profile.model_kwargs if model_kwargs is None else model_kwargs)

    if system == "draco":
        config = DracoConfig(
            num_workers=n,
            f=f,
            batch_size=b,
            max_steps=steps,
            eval_every=evaluate_every,
            learning_rate=profile.learning_rate,
            optimizer="momentum",
        )
        trainer = DracoTrainer(
            model=model_name,
            model_kwargs=model_args,
            dataset=dataset,
            config=config,
            cost_model=profile.cost_model,
            attack=attack or "reversed-gradient",
            attack_kwargs=attack_kwargs,
            num_byzantine=min(num_byzantine, f),
            seed=profile.seed + seed_offset,
        )
        return trainer.run()

    if system not in SYSTEM_GARS:
        raise ConfigurationError(
            f"unknown system {system!r}; available: {sorted(SYSTEM_GARS) + ['draco']}"
        )
    gar = SYSTEM_GARS[system]
    # The non-robust baselines are deployed with f=0 (they have no notion of f).
    declared_f = 0 if gar in ("average", "selective-average") else f
    return run_deployment(
        profile,
        dataset,
        max_steps=steps,
        eval_every=evaluate_every,
        model=model_name,
        model_kwargs=model_args,
        gar=gar,
        num_workers=n,
        num_byzantine=num_byzantine,
        declared_f=declared_f,
        attack=attack,
        attack_kwargs=attack_kwargs,
        corrupted_workers=corrupted_workers,
        batch_size=b,
        lossy_links=lossy_links,
        lossy_drop_rate=lossy_drop_rate,
        lossy_policy=lossy_policy,
        seed=profile.seed + seed_offset,
    ).history


@dataclass
class SystemResult:
    """One curve of a figure: the system label plus its telemetry and settings."""

    system: str
    history: TrainingHistory
    f: int
    batch_size: int

    def summary(self) -> Dict:
        """Scalar summary used by result tables."""
        return {
            "system": self.system,
            "f": self.f,
            "batch_size": self.batch_size,
            "final_accuracy": self.history.final_accuracy,
            "best_accuracy": self.history.best_accuracy,
            "total_time": self.history.total_time,
            "num_updates": self.history.num_updates,
            "throughput": self.history.throughput(),
            "diverged": self.history.diverged,
        }


__all__ = [
    "SYSTEM_GARS",
    "run_deployment",
    "resolve_k_fractions",
    "run_system",
    "SystemResult",
    "speedup_over_full_sync",
    "time_to_accuracy",
]
