"""Wire codecs — bytes-versus-accuracy on the shared-link substrate.

The paper's transport trades delivered bytes against time; the codec stage
generalises the trade: a sparsifying or quantising codec shrinks every
gradient's wire footprint, so at equal (or better) simulated
time-to-accuracy a compressed run should reach the target having moved
several-fold fewer bytes.  This driver trains one deployment per codec
line-up entry — identical seed, data and model initialisation — and reports
per-codec wire bytes, bytes-to-accuracy, time-to-accuracy and the recorded
compression error, plus the broadcast-contention scaling experiment: with
``link_sharing="fair"``, a full-sync model broadcast is N concurrent
sessions on the server's shared egress, so its cost grows with the worker
count instead of being priced as one solo transfer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.telemetry import TrainingHistory
from repro.experiments.config import ExperimentProfile, ci_profile
from repro.experiments.export import format_table
from repro.experiments.runners import resolve_k_fractions, run_deployment

#: Default line-up: ``(label, codec name, codec kwargs)``.  ``codec_k`` is
#: resolved against the model dimensionality at build time (a fraction of d
#: keeps the line-up meaningful for any profile).
DEFAULT_LINEUP: Tuple[Tuple[str, str, dict], ...] = (
    ("identity", "identity", {}),
    ("top-k/8", "top-k", {"k_fraction": 1 / 8}),
    ("random-k/8", "random-k", {"k_fraction": 1 / 8}),
    ("qsgd-4bit", "qsgd", {"quantize_bits": 4}),
)


def run_compression_comparison(
    profile: Optional[ExperimentProfile] = None,
    *,
    lineup: Optional[Sequence[Tuple[str, str, dict]]] = None,
    gar: str = "multi-krum",
    num_byzantine: int = 0,
    attack: Optional[str] = None,
    link_sharing: str = "none",
    target_accuracy: Optional[float] = None,
    max_steps: Optional[int] = None,
    bandwidth_gbps: Optional[float] = None,
) -> Dict:
    """Train one deployment per codec under identical seeds; compare bytes.

    ``target_accuracy`` selects the threshold for the bytes-to-accuracy /
    time-to-accuracy comparison (default: 90% of the identity run's final
    accuracy, so the comparison is meaningful at any profile scale).
    ``bandwidth_gbps`` overrides the profile cost model's link bandwidth —
    the codecs' *time* advantage only shows in the paper's regime where the
    wire, not compute, bounds the step (the byte advantage shows anywhere).
    """
    profile = profile or ci_profile()
    dataset = profile.make_dataset()
    entries = tuple(lineup) if lineup is not None else DEFAULT_LINEUP
    cost_model = profile.cost_model
    if bandwidth_gbps is not None:
        cost_model = replace(cost_model, bandwidth_gbps=float(bandwidth_gbps))

    results: List[Dict] = []
    for (label, codec_name, _), resolved in zip(
        entries, resolve_k_fractions(profile, entries, "codec_k")
    ):
        trainer = run_deployment(
            profile,
            dataset,
            max_steps=max_steps,
            gar=gar,
            num_byzantine=num_byzantine,
            attack=attack,
            cost_model=cost_model,
            codec=codec_name,
            link_sharing=link_sharing,
            **resolved,
        )
        results.append(
            {
                "label": label,
                "codec": codec_name,
                "codec_kwargs": resolved,
                "dim": trainer.server.dim,
                "frame_bytes": trainer.codec.frame_bytes(trainer.server.dim),
                "compression_ratio": trainer.codec.compression_ratio(trainer.server.dim),
                "history": trainer.history,
            }
        )

    threshold = target_accuracy
    if threshold is None:
        identity_history: TrainingHistory = results[0]["history"]
        final = identity_history.final_accuracy
        threshold = 0.9 * final if final == final else None  # NaN-safe

    return {
        "profile": profile.name,
        "gar": gar,
        "f": profile.f,
        "link_sharing": link_sharing,
        "target_accuracy": threshold,
        "results": results,
        "summaries": [_summary(r, threshold) for r in results],
    }


def _summary(result: Dict, threshold: Optional[float]) -> Dict:
    history: TrainingHistory = result["history"]
    wire = history.wire_summary()
    return {
        "label": result["label"],
        "codec": result["codec"],
        "frame_bytes": result["frame_bytes"],
        "compression_ratio": result["compression_ratio"],
        "final_accuracy": history.final_accuracy,
        "total_time": history.total_time,
        "wire_bytes": wire["wire_bytes"],
        "queueing_delay_seconds": wire["queueing_delay_seconds"],
        "compression_error": wire["compression_error"],
        "time_to_accuracy": (
            history.time_to_accuracy(threshold) if threshold is not None else None
        ),
        "bytes_to_accuracy": (
            history.bytes_to_accuracy(threshold) if threshold is not None else None
        ),
        "diverged": history.diverged,
    }


def bytes_saved_over_identity(results: Dict) -> Dict[str, float]:
    """Bytes-to-accuracy of identity over each codec (>1 = fewer bytes needed)."""
    by_label = {s["label"]: s["bytes_to_accuracy"] for s in results["summaries"]}
    base = by_label.get("identity")
    if base is None:
        return {}
    return {
        label: base / value
        for label, value in by_label.items()
        if value is not None and value > 0
    }


def run_broadcast_contention(
    profile: Optional[ExperimentProfile] = None,
    *,
    worker_counts: Sequence[int] = (2, 4, 8),
    link_sharing: str = "fair",
    gar: str = "average",
    max_steps: int = 3,
) -> Dict:
    """Full-sync broadcast cost versus worker count on the shared egress.

    With ``link_sharing="none"`` the model broadcast is priced as one solo
    transfer regardless of N; under ``"fair"`` the N concurrent fetches
    share the pipe, so the broadcast (and with it the step's wait floor)
    scales with the worker count and every worker records queueing delay.
    """
    profile = profile or ci_profile()
    dataset = profile.make_dataset()
    rows: List[Dict] = []
    for count in worker_counts:
        history = run_deployment(
            profile,
            dataset,
            max_steps=max_steps,
            eval_every=0,
            gar=gar,
            num_workers=int(count),
            declared_f=0,
            link_sharing=link_sharing,
        ).history
        wire = history.wire_summary()
        rows.append(
            {
                "num_workers": int(count),
                "mean_step_time": history.mean_step_time(),
                "queueing_delay_seconds": wire["queueing_delay_seconds"],
                "bytes_received": wire["bytes_received"],
            }
        )
    return {
        "profile": profile.name,
        "link_sharing": link_sharing,
        "rows": rows,
    }


def format_results(results: Dict) -> str:
    """Pretty-print the codec comparison."""
    rows = [
        (
            s["label"],
            s["compression_ratio"],
            s["final_accuracy"],
            s["total_time"],
            s["wire_bytes"],
            s["bytes_to_accuracy"] if s["bytes_to_accuracy"] is not None else float("nan"),
            s["time_to_accuracy"] if s["time_to_accuracy"] is not None else float("nan"),
            s["diverged"],
        )
        for s in results["summaries"]
    ]
    return format_table(
        ["codec", "ratio", "final_acc", "sim_time_s", "wire_bytes",
         "bytes_to_acc", "time_to_acc", "diverged"],
        rows,
        title=(
            f"Gradient compression — {results['gar']}, f={results['f']}, "
            f"link-sharing={results['link_sharing']}, "
            f"target={results['target_accuracy']}"
        ),
    )


__all__ = [
    "DEFAULT_LINEUP",
    "run_compression_comparison",
    "run_broadcast_contention",
    "bytes_saved_over_identity",
    "format_results",
]
