"""Straggler resilience — synchrony policies under a heavy-tailed cost model.

This driver extends the paper's unreliable-transport study (Figure 8) along
the *straggler* axis: instead of dropping packets, workers are slowed down by
heavy-tailed per-step multipliers (the empirical behaviour of co-located
jobs, GC pauses and thermal throttling in real clusters).  The fully
synchronous protocol pays the per-step *maximum* of those slowdowns by
construction; the quorum and bounded-staleness policies route around the
slowest workers and pay roughly the ``q``-th order statistic instead.

Three curves per run:

* ``full-sync`` — the paper's protocol, every step waits for every worker;
* ``quorum`` — aggregate at the first ``n - f`` arrivals, drop stragglers;
* ``bounded-staleness`` — aggregate at the first ``n - f`` arrivals, carry
  stragglers (staleness <= tau) into the next step.

The reported metrics are simulated steps/second, mean time-to-step and
time-to-accuracy — the same quantities behind the paper's overhead numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cost_model import StragglerModel
from repro.cluster.telemetry import TrainingHistory
from repro.experiments.config import ExperimentProfile, ci_profile
from repro.experiments.export import format_table
from repro.experiments.runners import run_deployment, speedup_over_full_sync, time_to_accuracy

#: The default policy line-up: ``(label, policy name, policy kwargs)``.
DEFAULT_POLICIES: Tuple[Tuple[str, str, dict], ...] = (
    ("full-sync", "full-sync", {}),
    ("quorum-drop", "quorum", {"stragglers": "drop"}),
    ("quorum-carry", "quorum", {"stragglers": "carry"}),
    ("bounded-staleness", "bounded-staleness", {"tau": 2}),
)


def default_straggler_model(
    *, distribution: str = "pareto", intensity: float = 1.0, prob: float = 0.3
) -> StragglerModel:
    """A heavy-tailed slowdown model: ~30% of workers straggle each step."""
    if distribution == "lognormal":
        return StragglerModel(distribution="lognormal", sigma=intensity, prob=prob)
    return StragglerModel(distribution=distribution, alpha=1.5, scale=intensity, prob=prob)


def run_straggler_resilience(
    profile: Optional[ExperimentProfile] = None,
    *,
    straggler_model: Optional[StragglerModel] = None,
    policies: Optional[Sequence[Tuple[str, str, dict]]] = None,
    gar: str = "multi-krum",
    num_byzantine: int = 0,
    attack: Optional[str] = None,
    max_steps: Optional[int] = None,
) -> Dict:
    """Train one deployment per synchrony policy under identical stragglers.

    Every run shares the profile's seed, so the data, model initialisation
    and straggler draws are directly comparable across policies.
    """
    profile = profile or ci_profile()
    dataset = profile.make_dataset()
    model = straggler_model if straggler_model is not None else default_straggler_model()
    lineup = tuple(policies) if policies is not None else DEFAULT_POLICIES

    results: List[Dict] = []
    for label, policy_name, policy_kwargs in lineup:
        trainer = run_deployment(
            profile,
            dataset,
            max_steps=max_steps,
            gar=gar,
            num_byzantine=num_byzantine,
            attack=attack,
            sync_policy=policy_name,
            sync_kwargs=dict(policy_kwargs),
            straggler_model=model,
        )
        results.append({"label": label, "policy": policy_name, "history": trainer.history})

    return {
        "profile": profile.name,
        "gar": gar,
        "f": profile.f,
        "straggler_model": model,
        "results": results,
        "summaries": [_summary(r) for r in results],
    }


def _summary(result: Dict) -> Dict:
    history: TrainingHistory = result["history"]
    sync = history.sync_summary()
    return {
        "label": result["label"],
        "policy": result["policy"],
        "final_accuracy": history.final_accuracy,
        "total_time": history.total_time,
        "num_updates": history.num_updates,
        "mean_step_time": history.mean_step_time(),
        "throughput": history.throughput(),
        "dropped_stragglers": sync["dropped_stragglers"],
        "carried_gradients": sync["carried_gradients"],
        "stale_gradients": sync["stale_gradients"],
        "max_staleness": sync["max_staleness"],
        "diverged": history.diverged,
    }


def format_results(results: Dict) -> str:
    """Pretty-print the straggler-resilience comparison."""
    rows = [
        (
            s["label"],
            s["final_accuracy"],
            s["mean_step_time"],
            s["total_time"],
            s["dropped_stragglers"],
            s["carried_gradients"],
            s["max_staleness"],
            s["diverged"],
        )
        for s in results["summaries"]
    ]
    model = results["straggler_model"]
    return format_table(
        ["policy", "final_acc", "step_time_s", "sim_time_s", "dropped", "carried",
         "max_stale", "diverged"],
        rows,
        title=f"Straggler resilience — {results['gar']}, f={results['f']}, "
        f"{model.distribution} stragglers (prob={model.prob})",
    )


__all__ = [
    "DEFAULT_POLICIES",
    "default_straggler_model",
    "run_straggler_resilience",
    "speedup_over_full_sync",
    "time_to_accuracy",
    "format_results",
]
