"""Figure 5 — throughput versus the number of workers.

Figure 5(a) sweeps the worker count from 2 to 18 for the Table-1 CNN and
shows that the robust GARs' throughput falls increasingly behind averaging as
workers are added (aggregation is O(n^2 d)), that a *larger declared f*
yields *higher* throughput (fewer Krum neighbours / fewer Bulyan iterations),
and that Draco sits an order of magnitude below everything else.
Figure 5(b) repeats the sweep with ResNet-50, where gradient computation
dominates and all TensorFlow-based systems scale alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import GAR_REGISTRY
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentProfile, ci_profile
from repro.experiments.export import format_table
from repro.experiments.runners import run_system

#: (system, f) pairs of Figure 5(a), in legend order.  ``None`` means the
#: system has no f parameter.
FIGURE5A_CURVES: Tuple[Tuple[str, Optional[int]], ...] = (
    ("tf", None),
    ("average", None),
    ("median", None),
    ("multi-krum", 1),
    ("multi-krum", 4),
    ("bulyan", 1),
    ("bulyan", 2),
    ("draco", 1),
    ("draco", 4),
)

#: Curves of Figure 5(b) (the large model, f = 1 only).
FIGURE5B_CURVES: Tuple[Tuple[str, Optional[int]], ...] = (
    ("average", None),
    ("median", None),
    ("multi-krum", 1),
    ("bulyan", 1),
    ("draco", 1),
)


def _min_workers(system: str, f: Optional[int]) -> int:
    """Smallest worker count for which the (system, f) pair is deployable."""
    if f is None:
        return 2
    if system == "draco":
        return 2 * f + 1
    if system in GAR_REGISTRY:
        return GAR_REGISTRY[system].minimum_workers(f)
    return 2


def run_throughput_sweep(
    profile: Optional[ExperimentProfile] = None,
    *,
    worker_counts: Optional[Sequence[int]] = None,
    curves: Sequence[Tuple[str, Optional[int]]] = FIGURE5A_CURVES,
    large_model: bool = False,
    steps_per_point: int = 5,
) -> Dict:
    """Measure steady-state throughput for every (system, f, #workers) point.

    ``large_model=True`` switches to the profile's ResNet-like model, i.e.
    Figure 5(b).
    """
    profile = profile or ci_profile()
    if steps_per_point < 1:
        raise ConfigurationError("steps_per_point must be >= 1")
    if worker_counts is None:
        worker_counts = list(range(2, profile.num_workers + 1, 2))
    dataset = profile.make_dataset()
    model = profile.large_model if large_model else profile.model
    model_kwargs = profile.large_model_kwargs if large_model else profile.model_kwargs
    if large_model and profile.name == "ci":
        # The large model consumes image tensors; swap in an image dataset of
        # matching geometry while keeping the run small.
        from repro.data.datasets import synthetic_cifar

        dataset = synthetic_cifar(
            num_train=256,
            num_test=64,
            image_size=model_kwargs.get("image_size", 8),
            num_classes=model_kwargs.get("num_classes", 4),
            rng=profile.seed,
        )

    points: List[Dict] = []
    for system, f in curves:
        for n in worker_counts:
            if n < _min_workers(system, f):
                continue
            history = run_system(
                profile,
                system,
                dataset,
                f=f if f is not None else 0,
                num_workers=n,
                max_steps=steps_per_point,
                eval_every=0,
                model=model,
                model_kwargs=model_kwargs,
            )
            points.append(
                {
                    "system": system,
                    "f": f,
                    "num_workers": n,
                    "throughput": history.throughput(),
                    "step_time": history.total_time / max(history.num_updates, 1),
                    "large_model": large_model,
                }
            )
    return {"profile": profile.name, "large_model": large_model, "points": points}


def throughput_curve(results: Dict, system: str, f: Optional[int] = None) -> List[Tuple[int, float]]:
    """Extract one (workers, throughput) curve from a sweep result."""
    return [
        (p["num_workers"], p["throughput"])
        for p in results["points"]
        if p["system"] == system and p["f"] == f
    ]


def format_results(results: Dict) -> str:
    """Pretty-print the Figure 5 reproduction."""
    rows = [
        (p["system"], p["f"] if p["f"] is not None else "-", p["num_workers"], p["throughput"])
        for p in results["points"]
    ]
    panel = "b (large model)" if results["large_model"] else "a (CNN)"
    return format_table(
        ["system", "f", "#workers", "throughput (batches/s)"],
        rows,
        title=f"Figure 5{panel} — throughput vs number of workers",
    )


__all__ = [
    "FIGURE5A_CURVES",
    "FIGURE5B_CURVES",
    "run_throughput_sweep",
    "throughput_curve",
    "format_results",
]
