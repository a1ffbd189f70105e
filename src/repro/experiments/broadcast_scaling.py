"""Delta broadcasts versus raw full-state framing on heterogeneous links.

AggregaThor's central systems claim is that the network, not the GAR, bounds
Byzantine-resilient SGD throughput.  PR 3 compressed the *uplink* (gradient
pushes), which makes the raw ``4d`` model broadcast the dominant wire cost
the moment a sparsifying codec shrinks the pushes several-fold.  This driver
measures the downlink half of the trade: the same deployment is trained once
per *broadcast line-up entry* — raw full-state framing, identity deltas
(byte-identical, trajectory-identical) and sparsifying delta codecs — on a
bandwidth-bound WAN profile (per-region shared bottlenecks, contention per
bottleneck), and the comparison reports downlink bytes, downlink
bytes-to-accuracy, the full/delta framing split and per-region queueing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.telemetry import TrainingHistory
from repro.experiments.config import ExperimentProfile, ci_profile
from repro.experiments.export import format_table
from repro.experiments.runners import resolve_k_fractions, run_deployment

#: Default line-up: ``(label, broadcast codec name or None, codec kwargs)``.
#: ``broadcast_k`` entries may be given as a ``k_fraction`` of the model
#: dimensionality, resolved at build time.
DEFAULT_LINEUP: Tuple[Tuple[str, Optional[str], dict], ...] = (
    ("raw", None, {}),
    ("delta-identity", "identity", {}),
    ("delta-top-k/8", "top-k", {"k_fraction": 1 / 8}),
)


def run_broadcast_scaling(
    profile: Optional[ExperimentProfile] = None,
    *,
    lineup: Optional[Sequence[Tuple[str, Optional[str], dict]]] = None,
    gar: str = "multi-krum",
    num_byzantine: int = 0,
    attack: Optional[str] = None,
    mode: str = "sync",
    sync_policy: str = "full-sync",
    max_version_lag: Optional[int] = None,
    link_profile: Optional[str] = "wan:3x100kbit",
    link_sharing: str = "fair",
    target_accuracy: Optional[float] = None,
    max_steps: Optional[int] = None,
    bandwidth_gbps: Optional[float] = None,
) -> Dict:
    """Train one deployment per broadcast framing under identical seeds.

    ``target_accuracy`` selects the threshold for the downlink
    bytes-to-accuracy comparison (default: 90% of the raw run's final
    accuracy, so the comparison is meaningful at any profile scale).
    ``bandwidth_gbps`` overrides the profile cost model's symmetric link
    bandwidth — the WAN regime where the wire, not compute, bounds the step.
    """
    profile = profile or ci_profile()
    dataset = profile.make_dataset()
    entries = tuple(lineup) if lineup is not None else DEFAULT_LINEUP
    cost_model = profile.cost_model
    if bandwidth_gbps is not None:
        cost_model = replace(cost_model, bandwidth_gbps=float(bandwidth_gbps))

    results: List[Dict] = []
    for (label, codec_name, _), resolved in zip(
        entries, resolve_k_fractions(profile, entries, "broadcast_k")
    ):
        trainer = run_deployment(
            profile,
            dataset,
            max_steps=max_steps,
            gar=gar,
            num_byzantine=num_byzantine,
            attack=attack,
            cost_model=cost_model,
            mode=mode,
            sync_policy=sync_policy,
            max_version_lag=max_version_lag,
            broadcast_codec=codec_name,
            link_profile=link_profile,
            link_sharing=link_sharing,
            **resolved,
        )
        results.append(
            {
                "label": label,
                "broadcast_codec": codec_name,
                "broadcast_kwargs": resolved,
                "dim": trainer.server.dim,
                "history": trainer.history,
            }
        )

    threshold = target_accuracy
    if threshold is None:
        raw_history: TrainingHistory = results[0]["history"]
        final = raw_history.final_accuracy
        threshold = 0.9 * final if final == final else None  # NaN-safe

    return {
        "profile": profile.name,
        "gar": gar,
        "f": profile.f,
        "mode": mode,
        "link_profile": link_profile,
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
        "broadcast_codec": result["broadcast_codec"],
        "final_accuracy": history.final_accuracy,
        "total_time": history.total_time,
        "downlink_bytes": wire["downlink_bytes"],
        "bytes_received_full": wire["bytes_received_full"],
        "bytes_received_delta": wire["bytes_received_delta"],
        "uplink_bytes": wire["wire_bytes"],
        "queueing_delay_seconds": wire["queueing_delay_seconds"],
        "region_queueing": history.region_queueing_summary(),
        "time_to_accuracy": (
            history.time_to_accuracy(threshold) if threshold is not None else None
        ),
        "downlink_bytes_to_accuracy": (
            history.downlink_bytes_to_accuracy(threshold)
            if threshold is not None
            else None
        ),
        "diverged": history.diverged,
    }


def downlink_savings_over_raw(results: Dict) -> Dict[str, float]:
    """Downlink bytes-to-accuracy of raw over each framing (>1 = fewer bytes)."""
    by_label = {
        s["label"]: s["downlink_bytes_to_accuracy"] for s in results["summaries"]
    }
    base = by_label.get("raw")
    if base is None:
        return {}
    return {
        label: base / value
        for label, value in by_label.items()
        if value is not None and value > 0
    }


def format_results(results: Dict) -> str:
    """Pretty-print the broadcast-framing comparison."""
    rows = [
        (
            s["label"],
            s["final_accuracy"],
            s["total_time"],
            s["downlink_bytes"],
            s["bytes_received_delta"],
            s["downlink_bytes_to_accuracy"]
            if s["downlink_bytes_to_accuracy"] is not None
            else float("nan"),
            s["time_to_accuracy"] if s["time_to_accuracy"] is not None else float("nan"),
            s["diverged"],
        )
        for s in results["summaries"]
    ]
    return format_table(
        ["broadcast", "final_acc", "sim_time_s", "down_bytes", "delta_bytes",
         "down_bytes_to_acc", "time_to_acc", "diverged"],
        rows,
        title=(
            f"Delta broadcasts — {results['gar']}, f={results['f']}, "
            f"mode={results['mode']}, link-profile={results['link_profile']}, "
            f"sharing={results['link_sharing']}, "
            f"target={results['target_accuracy']}"
        ),
    )


__all__ = [
    "DEFAULT_LINEUP",
    "run_broadcast_scaling",
    "downlink_savings_over_raw",
    "format_results",
]
