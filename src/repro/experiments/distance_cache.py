"""Distance-cache + server-core ablation on a carry-heavy quorum workload.

The robust GARs funnel through one O(n^2 d) pairwise-distance pass, and a
quorum policy with carried stragglers re-submits byte-identical gradient rows
round after round.  This driver measures what the PR-5 server-compute
subsystem buys on exactly that workload: Bulyan under ``quorum(carry)`` with
heavy-tailed stragglers is trained once per cell of the
``{distance cache off/on} x {server cores 1/C}`` matrix, under identical
seeds.  The lock-step trajectory is *bit-identical* across all four cells —
the cache serves the audited kernel's values and core sharding only touches
pricing — so the comparison isolates simulated aggregation time: cache hits
(carried rows, blocks warmed during the quorum wait) are free, and the
distance + coordinate-parallel work shards across the simulated cores.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cost_model import StragglerModel
from repro.cluster.telemetry import TrainingHistory
from repro.experiments.config import ExperimentProfile, ci_profile
from repro.experiments.export import format_table
from repro.experiments.runners import run_deployment

#: Ablation cells: ``(label, distance_cache, server_cores_or_None)``.
#: ``None`` resolves to the sweep's ``cores`` argument.
DEFAULT_CELLS: Tuple[Tuple[str, bool, Optional[int]], ...] = (
    ("uncached/1-core", False, 1),
    ("uncached/sharded", False, None),
    ("cached/1-core", True, 1),
    ("cached/sharded", True, None),
)


def run_distance_cache_ablation(
    profile: Optional[ExperimentProfile] = None,
    *,
    gar: str = "bulyan",
    num_workers: int = 15,
    f: int = 2,
    quorum: int = 13,
    cores: int = 4,
    max_steps: Optional[int] = None,
    straggler_scale: float = 3.0,
    cells: Optional[Sequence[Tuple[str, bool, Optional[int]]]] = None,
) -> Dict:
    """Train one deployment per ablation cell under identical seeds.

    The deployment is deliberately carry-heavy: ``quorum < n`` with
    ``stragglers="carry"`` and a Pareto compute-slowdown draw, so late
    gradients defer into the next step's pool and re-enter the aggregation
    matrix byte-identically — the redundancy the cache exists to exploit.
    """
    profile = profile or ci_profile()
    dataset = profile.make_dataset()
    entries = tuple(cells) if cells is not None else DEFAULT_CELLS

    results: List[Dict] = []
    for label, cached, cell_cores in entries:
        server_cores = cores if cell_cores is None else cell_cores
        trainer = run_deployment(
            profile,
            dataset,
            max_steps=max_steps,
            gar=gar,
            num_workers=num_workers,
            declared_f=f,
            sync_policy="quorum",
            sync_kwargs={"quorum": quorum, "stragglers": "carry"},
            straggler_model=StragglerModel(
                distribution="pareto", prob=0.6, scale=straggler_scale
            ),
            distance_cache=cached,
            server_cores=server_cores,
        )
        results.append(
            {
                "label": label,
                "distance_cache": cached,
                "server_cores": server_cores,
                "history": trainer.history,
                "parameters": trainer.server.parameters,
            }
        )

    return {
        "profile": profile.name,
        "gar": gar,
        "n": num_workers,
        "f": f,
        "quorum": quorum,
        "cores": cores,
        "results": results,
        "summaries": [_summary(r) for r in results],
    }


def _summary(result: Dict) -> Dict:
    history: TrainingHistory = result["history"]
    cache = history.distance_cache_summary()
    return {
        "label": result["label"],
        "distance_cache": result["distance_cache"],
        "server_cores": result["server_cores"],
        "final_accuracy": history.final_accuracy,
        "aggregation_time": float(sum(r.aggregation_time for r in history.steps)),
        "mean_step_time": history.mean_step_time(),
        "carried_gradients": history.sync_summary()["carried_gradients"],
        "hit_rate_pairs": cache["hit_rate_pairs"],
        "hit_rows": cache["hit_rows"],
        "distance_flops": cache["distance_flops"],
        "overlapped_flops": cache["overlapped_flops"],
        "diverged": history.diverged,
    }


def aggregation_speedups(results: Dict) -> Dict[str, float]:
    """Simulated aggregation-time speedup of each cell over the baseline."""
    by_label = {s["label"]: s["aggregation_time"] for s in results["summaries"]}
    base = by_label.get("uncached/1-core")
    if not base:
        return {}
    return {label: base / value for label, value in by_label.items() if value > 0}


def trajectories_identical(results: Dict) -> bool:
    """Whether every cell produced bit-identical final parameters."""
    parameters = [r["parameters"] for r in results["results"]]
    return all(np.array_equal(parameters[0], p) for p in parameters[1:])


def format_results(results: Dict) -> str:
    """Pretty-print the ablation matrix."""
    speedups = aggregation_speedups(results)
    rows = [
        (
            s["label"],
            s["final_accuracy"],
            s["aggregation_time"],
            speedups.get(s["label"], float("nan")),
            s["hit_rate_pairs"],
            s["hit_rows"],
            s["carried_gradients"],
            s["diverged"],
        )
        for s in results["summaries"]
    ]
    return format_table(
        ["cell", "final_acc", "agg_time_s", "speedup", "pair_hit_rate",
         "hit_rows", "carried", "diverged"],
        rows,
        title=(
            f"Distance cache x server cores — {results['gar']}, "
            f"n={results['n']}, f={results['f']}, quorum={results['quorum']}"
            f"(carry), cores={results['cores']}, "
            f"bit-identical={trajectories_identical(results)}"
        ),
    )


__all__ = [
    "DEFAULT_CELLS",
    "run_distance_cache_ablation",
    "aggregation_speedups",
    "trajectories_identical",
    "format_results",
]
