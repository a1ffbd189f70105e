"""Async server actor — overlapping rounds versus the lock-step protocol.

The paper's central systems claim is that relaxing TensorFlow's synchronous
parameter-server protocol (while keeping GAR-based resilience) buys large
throughput wins.  This driver measures exactly that trade on the simulated
cluster: the same deployment is trained once per *mode line-up entry* —
lock-step full synchrony, lock-step quorum, and the event-driven
:class:`~repro.cluster.trainer.AsyncTrainer` — under identical heavy-tailed
stragglers, and the comparison reports simulated time-to-accuracy,
throughput, server busy/idle fractions, per-worker round counts and the
admitted version-lag histogram.

Under full synchrony every update pays the per-round *maximum* of the worker
paths; the async engine keeps aggregating whatever quorum is present while
slower workers lag behind the version frontier, so updates overlap compute
and the simulated time per update collapses towards the quorum-th order
statistic of a single round trip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cost_model import StragglerModel
from repro.cluster.telemetry import TrainingHistory
from repro.experiments.config import ExperimentProfile, ci_profile
from repro.experiments.export import format_table, telemetry_series
from repro.experiments.runners import run_deployment, speedup_over_full_sync, time_to_accuracy
from repro.experiments.stragglers import default_straggler_model

#: The default line-up: ``(label, mode, policy name, policy kwargs, max lag)``.
DEFAULT_LINEUP: Tuple[Tuple[str, str, str, dict, Optional[int]], ...] = (
    ("full-sync", "sync", "full-sync", {}, None),
    ("quorum-sync", "sync", "quorum", {"stragglers": "carry"}, None),
    ("async", "async", "quorum", {}, 3),
    ("async-ssp", "async", "bounded-staleness", {"tau": 2}, None),
)


def run_async_throughput(
    profile: Optional[ExperimentProfile] = None,
    *,
    straggler_model: Optional[StragglerModel] = None,
    lineup: Optional[Sequence[Tuple[str, str, str, dict, Optional[int]]]] = None,
    gar: str = "multi-krum",
    num_byzantine: int = 0,
    attack: Optional[str] = None,
    max_steps: Optional[int] = None,
) -> Dict:
    """Train one deployment per line-up entry under identical stragglers.

    Every run shares the profile's seed, so data, model initialisation and
    straggler draws are directly comparable across modes.
    """
    profile = profile or ci_profile()
    dataset = profile.make_dataset()
    model = straggler_model if straggler_model is not None else default_straggler_model()
    entries = tuple(lineup) if lineup is not None else DEFAULT_LINEUP

    results: List[Dict] = []
    for label, mode, policy_name, policy_kwargs, max_lag in entries:
        trainer = run_deployment(
            profile,
            dataset,
            max_steps=max_steps,
            gar=gar,
            num_byzantine=num_byzantine,
            attack=attack,
            mode=mode,
            sync_policy=policy_name,
            sync_kwargs=dict(policy_kwargs),
            max_version_lag=max_lag,
            straggler_model=model,
        )
        results.append(
            {
                "label": label,
                "mode": mode,
                "policy": policy_name,
                "max_version_lag": max_lag,
                "history": trainer.history,
            }
        )

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
    telemetry = telemetry_series(history)
    lag_histogram = history.version_lag_histogram()
    return {
        "label": result["label"],
        "mode": result["mode"],
        "policy": result["policy"],
        "max_version_lag": result["max_version_lag"],
        "final_accuracy": history.final_accuracy,
        "total_time": history.total_time,
        "num_updates": history.num_updates,
        "mean_step_time": history.mean_step_time(),
        "throughput": history.throughput(),
        "server_busy_fraction": telemetry["server_busy_fraction"],
        "server_idle_fraction": telemetry["server_idle_fraction"],
        "worker_round_counts": telemetry["worker_round_counts"],
        "version_lag_histogram": telemetry["version_lag_histogram"],
        "max_version_lag_seen": max(lag_histogram, default=0),
        "diverged": history.diverged,
    }


def format_results(results: Dict) -> str:
    """Pretty-print the sync-versus-async comparison."""
    rows = [
        (
            s["label"],
            s["mode"],
            s["final_accuracy"],
            s["mean_step_time"],
            s["total_time"],
            s["server_busy_fraction"],
            s["max_version_lag_seen"],
            s["diverged"],
        )
        for s in results["summaries"]
    ]
    model = results["straggler_model"]
    return format_table(
        ["label", "mode", "final_acc", "step_time_s", "sim_time_s", "busy_frac",
         "max_lag", "diverged"],
        rows,
        title=f"Async throughput — {results['gar']}, f={results['f']}, "
        f"{model.distribution} stragglers (prob={model.prob})",
    )


__all__ = [
    "DEFAULT_LINEUP",
    "run_async_throughput",
    "time_to_accuracy",
    "speedup_over_full_sync",
    "format_results",
]
