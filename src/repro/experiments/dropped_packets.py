"""Figure 8 — impact of dropped packets (unreliable gradient transport).

The gradient uplinks of ``f`` workers run over the lossy UDP-like transport
(the lossyMPI analogue); the model broadcast stays reliable, as in the paper.

Panel (a) — 0% artificial drop rate: the three §3.3 recovery strategies
(drop-whole-gradient under vanilla TF, selective averaging, AggregaThor with
random fill) all converge, at essentially the same speed.

Panel (b) — 10% artificial drop rate: AggregaThor over the lossy transport
converges to 30% accuracy more than 6x faster than TF over the reliable
TCP-like transport (whose congestion control collapses under loss), while TF
over the lossy transport (averaging garbage coordinates) diverges.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core import MultiKrum
from repro.experiments.config import ExperimentProfile, ci_profile
from repro.experiments.export import format_table
from repro.experiments.runners import SystemResult, run_deployment, run_system


def _multi_krum_f(num_workers: int) -> int:
    """The paper sets f to the Multi-Krum maximum for this experiment (f=8 for n=19)."""
    return max(MultiKrum.max_byzantine(num_workers), 1)


def run_dropped_packets_clean(
    profile: Optional[ExperimentProfile] = None, *, lossy_links: Optional[int] = None
) -> Dict:
    """Panel (a): lossy transport with no artificial packet drops."""
    profile = profile or ci_profile()
    dataset = profile.make_dataset()
    f = _multi_krum_f(profile.num_workers)
    links = lossy_links if lossy_links is not None else f

    results: List[SystemResult] = []
    # Vanilla TF: whole gradients are dropped whenever any packet is missing.
    tf_history = run_system(
        profile, "tf", dataset,
        lossy_links=links, lossy_drop_rate=0.0, lossy_policy="drop-gradient",
    )
    results.append(SystemResult(system="tf", history=tf_history, f=0, batch_size=profile.batch_size))

    # Selective averaging: lost coordinates become NaN and are skipped.
    sel_history = run_system(
        profile, "selective-average", dataset,
        lossy_links=links, lossy_drop_rate=0.0, lossy_policy="nan-fill",
    )
    results.append(
        SystemResult(system="selective-average", history=sel_history, f=0, batch_size=profile.batch_size)
    )

    # AggregaThor: garbage fill, robust GAR on top.
    agg_history = run_system(
        profile, "multi-krum", dataset, f=f,
        lossy_links=links, lossy_drop_rate=0.0, lossy_policy="random-fill",
    )
    results.append(
        SystemResult(system="aggregathor", history=agg_history, f=f, batch_size=profile.batch_size)
    )

    return {
        "profile": profile.name,
        "drop_rate": 0.0,
        "lossy_links": links,
        "f": f,
        "results": results,
        "summaries": [r.summary() for r in results],
    }


def run_dropped_packets_lossy(
    profile: Optional[ExperimentProfile] = None,
    *,
    drop_rate: float = 0.10,
    lossy_links: Optional[int] = None,
    tcp_rtt_s: float = 0.01,
) -> Dict:
    """Panel (b): 10% artificial drop rate.

    Curves: AggregaThor over the lossy transport, TF over the reliable
    (TCP-like) transport paying the congestion penalty, and TF over the lossy
    transport (averaging garbage), which diverges.

    ``tcp_rtt_s`` is the round-trip time used by the TCP congestion model; the
    paper's setting is a *saturated* network, where queueing inflates the RTT
    to the order of 10 ms — which is what makes TCP's loss recovery collapse
    (the paper observes an order-of-magnitude slowdown).
    """
    profile = profile or ci_profile()
    dataset = profile.make_dataset()
    f = _multi_krum_f(profile.num_workers)
    links = lossy_links if lossy_links is not None else f

    results: List[SystemResult] = []

    agg_history = run_system(
        profile, "multi-krum", dataset, f=f,
        lossy_links=links, lossy_drop_rate=drop_rate, lossy_policy="random-fill",
    )
    results.append(
        SystemResult(system="aggregathor-udp", history=agg_history, f=f, batch_size=profile.batch_size)
    )

    # TF over gRPC/TCP: reliable delivery, but every lossy link pays the
    # TCP congestion penalty (modelled by the ReliableChannel drop_rate).
    from repro.cluster.network import ReliableChannel

    tcp_channels = {
        worker_id: ReliableChannel(drop_rate=drop_rate, rtt_s=tcp_rtt_s)
        for worker_id in range(profile.num_workers - links, profile.num_workers)
    }
    tcp_history = run_deployment(
        profile,
        dataset,
        gar="average",
        declared_f=0,
        uplink_channels=tcp_channels,
    ).history
    results.append(
        SystemResult(system="tf-grpc", history=tcp_history, f=0, batch_size=profile.batch_size)
    )

    # TF over lossyMPI: averaging with garbage-filled gradients — diverges.
    tf_udp_history = run_system(
        profile, "tf", dataset,
        lossy_links=links, lossy_drop_rate=drop_rate, lossy_policy="random-fill",
    )
    results.append(
        SystemResult(system="tf-lossympi", history=tf_udp_history, f=0, batch_size=profile.batch_size)
    )

    return {
        "profile": profile.name,
        "drop_rate": drop_rate,
        "lossy_links": links,
        "f": f,
        "results": results,
        "summaries": [r.summary() for r in results],
    }


def speedup_to_accuracy(results: Dict, threshold: float) -> Dict[str, float]:
    """Time-to-threshold per system plus AggregaThor's speed-up over TF/gRPC."""
    times = {}
    for result in results["results"]:
        reached = result.history.time_to_accuracy(threshold)
        times[result.system] = reached if reached is not None else float("inf")
    agg = times.get("aggregathor-udp", float("inf"))
    tcp = times.get("tf-grpc", float("inf"))
    speedup = tcp / agg if agg not in (0.0, float("inf")) else float("nan")
    return {"times": times, "speedup_aggregathor_vs_tf_grpc": speedup}


def format_results(results: Dict) -> str:
    """Pretty-print a Figure 8 panel."""
    rows = [
        (s["system"], s["final_accuracy"], s["total_time"], s["diverged"])
        for s in results["summaries"]
    ]
    return format_table(
        ["system", "final_acc", "sim_time_s", "diverged"],
        rows,
        title=f"Figure 8 — drop rate {results['drop_rate']:.0%}, "
        f"{results['lossy_links']} lossy link(s)",
    )


__all__ = [
    "run_dropped_packets_clean",
    "run_dropped_packets_lossy",
    "speedup_to_accuracy",
    "format_results",
]
