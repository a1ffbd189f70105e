"""Fleet-scale simulator benchmark: a multi-scenario perf matrix.

The simulator's original object-per-worker hot loop priced a 1000-worker
step in Python call overhead, not numpy; the vectorised collect path,
structure-of-arrays fleet state, batched codec, batched Byzantine crafting,
the im2col fleet compute kernel and the micro-batched async drain move
every per-worker scalar into array form.  Those optimisations land in
*different* regimes — lock-step rounds, quorum-driven async streams,
WAN-contended broadcasts, strong-GAR aggregation under attack, conv-heavy
worker math — so one scenario cannot witness them all.  This driver pins a
**scenario grid** and times each scenario on two arms of the same
deployment:

* ``legacy`` — ``vectorized=False``, the seed's per-worker loop (the
  pre-optimisation reference every speedup is measured against);
* an optimised arm — ``fleet`` (vectorised + fleet compute kernel +
  compact telemetry) where the kernel applies, or ``vectorized`` (the
  bit-identical exact path) where a broadcast codec gates the kernel off.

The grid:

``sync_fleet``
    The standard 1000-worker lock-step scenario (median GAR, top-k/8
    uplink, tiny logistic model) — wall-clock is simulator overhead, the
    regime of the original >= 5x acceptance criterion.
``async_quorum``
    The same deployment under ``--mode async`` with a quorum policy: the
    event stream interleaves FETCH/COMPUTE/PUSH per worker and the
    micro-batched drain + O(1) admission bookkeeping carry the win.
``wan_delta``
    Async delta broadcasts on a shared WAN profile with fair link sharing
    — the contended links exercise the ``link_reschedule`` path.  The
    optimised arm is the exact vectorised path (a broadcast codec
    disables the fleet kernel), and most of the step is link maths common
    to both arms, so the honest speedup is modest.
``bulyan_attack``
    Bulyan under an active sign-flip adversary: the batched crafting path
    and the vectorised collect run against a GAR whose O(n^2) distance
    work dominates both arms.
``conv_fleet``
    A conv model (``small-cnn``) on synthetic CIFAR under the fleet
    compute kernel — the im2col stacked-batch backward replaces per-worker
    python conv loops.
``sync_10k``
    The lock-step scenario at 10,000 workers — one order of magnitude past
    the standard grid and the ROADMAP's upper fleet target.  The CI smoke
    job runs it at full worker count and additionally gates wall-clock and
    peak heap against absolute budgets, witnessing that the SoA hot paths
    stay sub-budget (and non-OOM) at that scale.
``sharded_wan``
    A dense lock-step deployment on a four-region WAN with the parameter
    service region-sharded (``--server-topology region-sharded``): each
    worker's home slice is served in-region and the inter-server shard
    gather is priced as measured wire sessions.  The smoke job additionally
    runs an *unsharded* twin of the deployment and asserts the per-region
    sharding cuts the measured cross-region bytes — the service's headline
    systems claim.

Timing is reported min-and-median over repeats (min damps scheduler noise)
next to machine-normalised throughput (dispatched events per second) and
the per-scenario ``optimised / legacy`` speedup ratio — the ratio is what
CI gates on, so a slow container does not fail the build.  The optimised
arm's last repeat runs under :class:`~repro.cluster.profiler.SimProfiler`
and each scenario's payload carries the per-subsystem second/share split.

Run directly for the CI jobs::

    python -m repro.experiments.fleet_scale --smoke
    python -m repro.experiments.fleet_scale --determinism-check
    python -m repro.experiments.fleet_scale --json BENCH_simulator.json
"""

from __future__ import annotations

import argparse
import gc
import platform
import statistics
import sys
import time
import tracemalloc
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cluster.builder import build_trainer
from repro.cluster.profiler import SimProfiler
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import load_dataset
from repro.experiments.export import format_table, results_to_json

#: The standard fleet-scale scenario.  1000 workers dominate wall-clock with
#: simulator overhead (event routing, codec framing, telemetry) while the
#: 55-parameter logistic model keeps the actual math negligible — exactly
#: the regime where the per-worker Python loop was the bottleneck.  The
#: top-k codec exercises the batched sparsifier (selection + scatter), the
#: median GAR the dense coordinate-wise kernel.
STANDARD_SCENARIO: Dict = {
    "num_workers": 1000,
    "num_byzantine": 0,
    "declared_f": 2,
    "model": "logistic",
    "model_kwargs": {"input_dim": 10, "num_classes": 5},
    "dataset": {
        "name": "blobs",
        "num_train": 2000,
        "num_classes": 5,
        "dim": 10,
        "rng": 3,
    },
    "gar": "median",
    "batch_size": 2,
    "codec": "top-k",
    "codec_k": 8,
    "seed": 7,
    "max_steps": 5,
}

#: Arm name -> build_trainer overrides.
ARMS: Dict[str, Dict] = {
    "legacy": {
        "vectorized": False,
        "compute_mode": "exact",
        "compact_telemetry": False,
        "gar_selection": "loop",
    },
    "vectorized": {
        "vectorized": True,
        "compute_mode": "exact",
        "compact_telemetry": False,
        "gar_selection": "vectorized",
    },
    "fleet": {
        "vectorized": True,
        "compute_mode": "fleet",
        "compact_telemetry": True,
        "gar_selection": "vectorized",
    },
}

#: The perf matrix.  Each scenario is the flat deployment config plus:
#:
#: * ``arms`` — the (legacy, optimised) arm pair the benchmark times; the
#:   last non-legacy arm is the one profiled and gated;
#: * ``extra`` — additional ``build_trainer`` kwargs (mode, sync policy,
#:   link profile, broadcast codec, attack) shared by every arm;
#: * ``smoke`` — scenario overrides for the scaled-down CI smoke run.
SCENARIOS: Dict[str, Dict] = {
    "sync_fleet": {
        **STANDARD_SCENARIO,
        "arms": ("legacy", "fleet"),
        "smoke": {"num_workers": 200, "max_steps": 3},
    },
    "async_quorum": {
        **STANDARD_SCENARIO,
        "arms": ("legacy", "fleet"),
        "extra": {"mode": "async", "sync_policy": "quorum"},
        "smoke": {"num_workers": 150, "max_steps": 3},
    },
    "wan_delta": {
        **STANDARD_SCENARIO,
        "num_workers": 400,
        "arms": ("legacy", "vectorized"),
        "extra": {
            "mode": "async",
            "sync_policy": "quorum",
            "link_profile": "wan:4x10mbit/20ms",
            "link_sharing": "fair",
            "broadcast_codec": "top-k",
            "broadcast_k": 8,
        },
        "smoke": {"num_workers": 60, "max_steps": 3},
    },
    "bulyan_attack": {
        **STANDARD_SCENARIO,
        "num_workers": 300,
        "num_byzantine": 3,
        "declared_f": 3,
        "gar": "bulyan",
        "arms": ("legacy", "fleet"),
        "extra": {"attack": "sign-flip"},
        "smoke": {"num_workers": 60, "max_steps": 3},
    },
    "sync_10k": {
        **STANDARD_SCENARIO,
        "num_workers": 10_000,
        "max_steps": 3,
        "arms": ("legacy", "fleet"),
        # The smoke run keeps the full 10k fleet (that scale is the point)
        # and trims steps; the absolute wall/heap budgets gate it.  Both are
        # deliberately loose multiples of the measured numbers (~0.3 s /
        # ~40 MB fleet arm): the wall budget catches hangs and quadratic
        # blowups on a slow container without flaking, the tracemalloc
        # ceiling catches 10k-worker memory regressions (a return to
        # per-entry Python object pools) long before the runner OOMs.
        "budget": {"wall_s": 60.0, "heap_bytes": 128 * 1024 * 1024},
        "smoke": {"max_steps": 2},
    },
    "sharded_wan": {
        **STANDARD_SCENARIO,
        "num_workers": 400,
        # A denser model (d = 2020) pushed uncompressed: the regime where
        # regional slice serving pays off — per-worker wire bytes dominate
        # the inter-server gather's (n, n) distance blocks.  Lock-step
        # rounds keep the unsharded twin byte-comparable (the data plane is
        # bit-identical across topologies in sync mode).
        "model_kwargs": {"input_dim": 100, "num_classes": 20},
        "dataset": {
            "name": "blobs",
            "num_train": 2000,
            "num_classes": 20,
            "dim": 100,
            "rng": 3,
        },
        "codec": "identity",
        "codec_k": None,
        "arms": ("legacy", "vectorized"),
        "extra": {
            "link_profile": "wan:4x10mbit/20ms",
            "link_sharing": "fair",
            "server_topology": "region-sharded",
        },
        "smoke": {"num_workers": 60, "max_steps": 3},
    },
    "conv_fleet": {
        "num_workers": 50,
        "num_byzantine": 0,
        "declared_f": 2,
        "model": "small-cnn",
        "model_kwargs": {"image_size": 8},
        "dataset": {
            "name": "synthetic-cifar",
            "num_train": 400,
            "image_size": 8,
            "rng": 3,
        },
        "gar": "median",
        "batch_size": 4,
        "codec": "identity",
        "codec_k": None,
        "seed": 7,
        "max_steps": 5,
        "arms": ("legacy", "fleet"),
        "smoke": {"num_workers": 12, "max_steps": 2},
    },
}


def optimized_arm(scenario: Dict) -> str:
    """The arm a scenario's speedup / profile split is reported for."""
    non_legacy = [arm for arm in scenario.get("arms", ("legacy", "fleet")) if arm != "legacy"]
    if not non_legacy:
        raise ValueError("scenario has no non-legacy arm to gate on")
    return non_legacy[-1]


def smoke_scenarios() -> Dict[str, Dict]:
    """The grid scaled down for the CI smoke job (seconds, not minutes)."""
    scaled = {}
    for name, scenario in SCENARIOS.items():
        smoke = dict(scenario)
        smoke.update(scenario.get("smoke", {}))
        scaled[name] = smoke
    return scaled


def smoke_scenario() -> Dict:
    """The standard scenario at smoke scale (kept for benchmark warmups)."""
    return smoke_scenarios()["sync_fleet"]


def _build(scenario: Dict, arm: str, *, profiler: Optional[SimProfiler] = None):
    dataset_kwargs = dict(scenario["dataset"])
    dataset = load_dataset(dataset_kwargs.pop("name"), **dataset_kwargs)
    return build_trainer(
        model=scenario["model"],
        model_kwargs=scenario["model_kwargs"],
        dataset=dataset,
        gar=scenario["gar"],
        num_workers=scenario["num_workers"],
        num_byzantine=scenario["num_byzantine"],
        declared_f=scenario["declared_f"],
        batch_size=scenario["batch_size"],
        codec=scenario["codec"],
        codec_k=scenario["codec_k"],
        seed=scenario["seed"],
        profiler=profiler,
        **scenario.get("extra", {}),
        **ARMS[arm],
    )


def _run_arm(
    scenario: Dict,
    arm: str,
    *,
    repeats: int = 3,
    profile_split: bool = False,
    measure_heap: bool = False,
) -> Dict:
    """Time one arm over *repeats* fresh deployments; return its summary.

    Every repeat rebuilds the trainer (same seed, identical trajectory) and
    times only :meth:`~repro.cluster.trainer.BaseTrainer.run`.  The
    profiler / tracemalloc passes run *outside* the timed repeats so their
    instrumentation cost never contaminates the wall-clock numbers.  Each
    measured run starts from a collected heap: the cyclic garbage of the
    preceding 10k-worker trainers otherwise gets collected inside whichever
    run comes next (seen as a one-off collapse of the profiled split).
    """
    config = TrainerConfig(max_steps=scenario["max_steps"], eval_every=0)
    wall_clocks: List[float] = []
    trainer = None
    for _ in range(repeats):
        trainer = _build(scenario, arm)
        gc.collect()
        # simlint: disable=SIM101 the perf harness measures host wall clock
        # by design; its numbers are reporting artefacts, never inputs to
        # the (fully deterministic) simulation itself.
        start = time.perf_counter()
        trainer.run(config)
        # simlint: disable=SIM101 perf-harness wall clock (see above)
        wall_clocks.append(time.perf_counter() - start)
    assert trainer is not None
    events = trainer.events_dispatched
    best = min(wall_clocks)
    summary = {
        "arm": arm,
        "wall_clock_s": {
            "min": best,
            "median": statistics.median(wall_clocks),
            "repeats": wall_clocks,
        },
        "events_dispatched": events,
        "events_per_s": events / best if best > 0 else float("nan"),
        "peak_queue_size": trainer.peak_queue_size,
        "final_sim_time": trainer.history.total_time,
        "final_mean_loss": (
            trainer.history.steps[-1].mean_loss if trainer.history.steps else None
        ),
    }
    service = getattr(trainer, "service", None)
    if service is not None and not service.is_trivial:
        # The measured inter-server wire ledger (per-shard push/fetch split
        # and the gather sessions) is what the sharded scenarios report on.
        summary["interserver"] = trainer.history.interserver_summary()
    if profile_split:
        profiler = SimProfiler()
        profiled = _build(scenario, arm, profiler=profiler)
        gc.collect()
        profiler.start_run()
        try:
            profiled.run(config)
        finally:
            profiler.stop_run()
        summary["subsystems"] = profiler.to_dict()
    if measure_heap:
        heap_trainer = _build(scenario, arm)
        gc.collect()
        tracemalloc.start()
        try:
            heap_trainer.run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        summary["peak_heap_bytes"] = int(peak)
    return summary


def run_scenario(
    scenario: Dict,
    *,
    arms: Optional[Sequence[str]] = None,
    repeats: int = 3,
    profile_split: bool = True,
    measure_heap: bool = True,
) -> Dict:
    """Run one scenario across its arms; return the per-scenario node."""
    scenario = dict(scenario)
    arms = tuple(arms if arms is not None else scenario.get("arms", ("legacy", "fleet")))
    unknown = [arm for arm in arms if arm not in ARMS]
    if unknown:
        raise ValueError(f"unknown arms {unknown}; choose from {sorted(ARMS)}")
    summaries = {
        arm: _run_arm(
            scenario,
            arm,
            repeats=repeats,
            # The per-subsystem split and heap peak describe the optimised
            # arms; the legacy arm exists only as the speedup denominator.
            profile_split=profile_split and arm != "legacy",
            measure_heap=measure_heap and arm != "legacy",
        )
        for arm in arms
    }
    node = {"scenario": scenario, "arms": summaries}
    legacy = summaries.get("legacy")
    if legacy is not None:
        speedups = {}
        for arm, summary in summaries.items():
            if arm == "legacy":
                continue
            speedups[arm] = {
                "min": legacy["wall_clock_s"]["min"] / summary["wall_clock_s"]["min"],
                "median": (
                    legacy["wall_clock_s"]["median"]
                    / summary["wall_clock_s"]["median"]
                ),
            }
        node["speedup_vs_legacy"] = speedups
    return node


def run_fleet_scale(
    scenarios: Union[None, Sequence[str], Dict[str, Dict]] = None,
    *,
    repeats: int = 3,
    profile_split: bool = True,
    measure_heap: bool = True,
) -> Dict:
    """Run the perf matrix; returns the ``BENCH_simulator`` payload.

    *scenarios* selects the grid: ``None`` runs every registered scenario,
    a sequence of names runs that subset, and a ``name -> scenario`` dict
    runs custom configs (the smoke job passes the scaled-down grid).
    """
    if scenarios is None:
        grid = dict(SCENARIOS)
    elif isinstance(scenarios, dict):
        grid = dict(scenarios)
    else:
        unknown = [name for name in scenarios if name not in SCENARIOS]
        if unknown:
            raise ValueError(
                f"unknown scenarios {unknown}; choose from {sorted(SCENARIOS)}"
            )
        grid = {name: SCENARIOS[name] for name in scenarios}
    return {
        "benchmark": "fleet_scale",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "scenarios": {
            name: run_scenario(
                scenario,
                repeats=repeats,
                profile_split=profile_split,
                measure_heap=measure_heap,
            )
            for name, scenario in grid.items()
        },
    }


def format_results(results: Dict) -> str:
    """Pretty-print the scenario grid (and each profiled subsystem split)."""
    blocks = []
    for name, node in results["scenarios"].items():
        scenario = node["scenario"]
        rows = []
        for arm, summary in node["arms"].items():
            speedup = node.get("speedup_vs_legacy", {}).get(arm, {})
            rows.append(
                (
                    arm,
                    summary["wall_clock_s"]["min"],
                    summary["wall_clock_s"]["median"],
                    summary["events_dispatched"],
                    summary["events_per_s"],
                    summary["peak_queue_size"],
                    speedup.get("min", float("nan")),
                )
            )
        mode = scenario.get("extra", {}).get("mode", "sync")
        text = format_table(
            ["arm", "wall_min_s", "wall_med_s", "events", "events_per_s",
             "peak_queue", "speedup_min"],
            rows,
            title=(
                f"{name} — {scenario['num_workers']} workers, {mode}, "
                f"{scenario['gar']}, model={scenario['model']}, "
                f"{scenario['max_steps']} steps"
            ),
        )
        profiled = node["arms"].get(optimized_arm(scenario), {})
        subsystems = profiled.get("subsystems")
        if subsystems:
            split_rows = [
                (sub, stats["seconds"], stats["share"], stats["calls"])
                for sub, stats in subsystems["subsystems"].items()
                if stats["calls"]
            ]
            text += "\n" + format_table(
                ["subsystem", "seconds", "share", "calls"],
                split_rows,
                title=f"{name} optimised-arm per-subsystem split (profiled repeat)",
            )
        blocks.append(text)
    return "\n\n".join(blocks)


# ----------------------------------------------------------------- CI hooks
def _smoke(json_path: Optional[str]) -> int:
    """Scaled-down end-to-end grid: every arm trains, accounting is coherent.

    Each scenario additionally runs the exact ``vectorized`` arm so a
    bit-identity witness (legacy vs vectorised mean loss) covers every
    regime of the matrix, including those whose gated arm is the
    statistically-equivalent fleet path.
    """
    nodes = {}
    failures = 0
    for name, scenario in smoke_scenarios().items():
        arms = list(scenario.get("arms", ("legacy", "fleet")))
        if "vectorized" not in arms:
            arms.insert(1, "vectorized")
        nodes[name] = run_scenario(
            scenario, arms=arms, repeats=2, profile_split=True,
            # Budgeted scenarios (sync_10k) additionally run the optimised
            # arms under tracemalloc so the heap ceiling below can gate.
            measure_heap="budget" in scenario,
        )
    results = {"benchmark": "fleet_scale", "scenarios": nodes}
    print(format_results(results))
    for name, node in nodes.items():
        scenario = node["scenario"]
        summaries = node["arms"]
        is_async = scenario.get("extra", {}).get("mode") == "async"
        counts = {arm: s["events_dispatched"] for arm, s in summaries.items()}
        if len(set(counts.values())) != 1:
            print(f"FAIL: {name}: arms disagree on event counts: {counts}",
                  file=sys.stderr)
            failures += 1
        if not is_async:
            # Lock-step rounds have a closed-form event budget; the async
            # stream's count depends on the quorum schedule, so there the
            # cross-arm agreement above is the accounting check.
            expected = scenario["num_workers"] * scenario["max_steps"]
            for arm, summary in summaries.items():
                if summary["events_dispatched"] != expected:
                    print(
                        f"FAIL: {name}/{arm} dispatched "
                        f"{summary['events_dispatched']} events, expected {expected}",
                        file=sys.stderr,
                    )
                    failures += 1
                if summary["peak_queue_size"] != scenario["num_workers"]:
                    print(
                        f"FAIL: {name}/{arm} peak queue "
                        f"{summary['peak_queue_size']}, expected "
                        f"{scenario['num_workers']}",
                        file=sys.stderr,
                    )
                    failures += 1
        # The exact vectorised arm replays the legacy trajectory
        # bit-for-bit; the mean losses are the cheapest strong witness.
        if summaries["vectorized"]["final_mean_loss"] != summaries["legacy"]["final_mean_loss"]:
            print(f"FAIL: {name}: vectorized arm diverged from the legacy trajectory",
                  file=sys.stderr)
            failures += 1
        for arm, summary in summaries.items():
            loss = summary["final_mean_loss"]
            if loss is None or not np.isfinite(loss):
                print(f"FAIL: {name}/{arm} final mean loss {loss!r} is not finite",
                      file=sys.stderr)
                failures += 1
        budget = scenario.get("budget")
        if budget:
            # Absolute gates for the at-scale scenario: the gated arm must
            # finish inside the CI wall budget and under the tracemalloc
            # heap ceiling (10k-worker memory regressions fail fast here,
            # before the full perf matrix even runs).
            gated = optimized_arm(scenario)
            summary = summaries[gated]
            wall = summary["wall_clock_s"]["min"]
            if wall > budget["wall_s"]:
                print(
                    f"FAIL: {name}/{gated} wall clock {wall:.2f}s exceeds the "
                    f"{budget['wall_s']}s smoke budget",
                    file=sys.stderr,
                )
                failures += 1
            peak = summary.get("peak_heap_bytes")
            if peak is None or peak > budget["heap_bytes"]:
                print(
                    f"FAIL: {name}/{gated} peak heap {peak} exceeds the "
                    f"{budget['heap_bytes']}-byte tracemalloc ceiling",
                    file=sys.stderr,
                )
                failures += 1
    failures += _check_sharded_wan_cuts_cross_region_bytes(nodes)
    if failures:
        return 1
    if json_path:
        results_to_json(results, json_path)
    print("fleet-scale smoke: OK")
    return 0


def _check_sharded_wan_cuts_cross_region_bytes(nodes: Dict) -> int:
    """The region-sharded service's headline claim, measured at smoke scale.

    The ``sharded_wan`` arms already carry the measured inter-server ledger;
    this check runs an *unsharded* twin of the same deployment and compares
    cross-region bytes.  On a ``wan:`` profile the single server is the core
    hub *outside* every region — each worker's push and fetch rides its
    region's WAN bottleneck, so the twin's cross-region bytes are its
    **total** wire bytes.  The region-sharded service serves each worker's
    home slice from the in-region shard (that slice never touches the WAN)
    at the cost of the measured inter-server gather, which must still come
    out ahead.
    """
    node = nodes.get("sharded_wan")
    if node is None:
        return 0
    scenario = node["scenario"]
    gated = optimized_arm(scenario)
    inter = node["arms"][gated].get("interserver", {})
    if not inter or inter.get("gather_bytes", 0.0) <= 0:
        print(
            "FAIL: sharded_wan: no measured inter-server gather bytes "
            f"(interserver={inter})",
            file=sys.stderr,
        )
        return 1
    sharded_cross = inter["push_cross_bytes"] + inter["fetch_cross_bytes"]

    twin_scenario = dict(scenario)
    twin_extra = dict(twin_scenario.get("extra", {}))
    twin_extra.pop("server_topology", None)
    twin_scenario["extra"] = twin_extra
    twin = _build(twin_scenario, gated)
    twin.run(TrainerConfig(max_steps=scenario["max_steps"], eval_every=0))
    unsharded_cross = sum(
        timeline.bytes_sent + timeline.bytes_received
        for timeline in twin.history.merged_timelines().values()
    )
    print(
        f"sharded_wan cross-region bytes: sharded {sharded_cross:.0f} "
        f"(+{inter['gather_bytes']:.0f} inter-server gather) vs "
        f"unsharded {unsharded_cross:.0f}"
    )
    if sharded_cross + inter["gather_bytes"] >= unsharded_cross:
        print(
            "FAIL: sharded_wan: region sharding did not cut cross-region "
            f"bytes (sharded {sharded_cross:.0f} + gather "
            f"{inter['gather_bytes']:.0f} >= unsharded {unsharded_cross:.0f})",
            file=sys.stderr,
        )
        return 1
    return 0


def _determinism_check() -> int:
    """Replay every scenario's optimised arms twice; any telemetry drift fails.

    The fleet compute kernel, the batched codec and the batched Byzantine
    crafting draw from dedicated RNG streams, so two builds from the same
    seed must produce byte-identical histories — on the exact path *and*
    the statistically-equivalent fleet path, in every regime of the grid.
    """
    import json

    for name, scenario in smoke_scenarios().items():
        config = TrainerConfig(max_steps=scenario["max_steps"], eval_every=0)
        arms = [arm for arm in scenario.get("arms", ("legacy", "fleet")) if arm != "legacy"]
        if "vectorized" not in arms:
            arms.insert(0, "vectorized")
        for arm in arms:
            replays = []
            for _ in range(2):
                trainer = _build(scenario, arm)
                history = trainer.run(config)
                replays.append(
                    json.dumps(
                        {
                            "steps": [
                                (r.step, r.sim_time, r.mean_loss, r.wire_bytes)
                                for r in history.steps
                            ],
                            "parameters": trainer.server.parameters.tolist(),
                        },
                        sort_keys=True,
                    )
                )
            if replays[0] != replays[1]:
                print(
                    f"FAIL: {name}/{arm} replay diverged between identical runs",
                    file=sys.stderr,
                )
                return 1
    print("fleet-scale determinism: OK (every scenario's vectorised arms replay identically)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point for the CI smoke / determinism / benchmark jobs."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.fleet_scale",
        description="Fleet-scale simulator benchmark (multi-scenario perf matrix)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down end-to-end grid (CI perf-smoke job)")
    parser.add_argument("--determinism-check", action="store_true",
                        help="replay every scenario's optimised arms twice and diff telemetry")
    parser.add_argument("--json", default=None,
                        help="write the benchmark payload to this JSON file")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per arm (default 3)")
    parser.add_argument("--scenarios", nargs="+", default=None,
                        choices=sorted(SCENARIOS), help="scenario subset to run")
    args = parser.parse_args(argv)
    if args.determinism_check:
        return _determinism_check()
    if args.smoke:
        return _smoke(args.json)
    results = run_fleet_scale(args.scenarios, repeats=args.repeats)
    print(format_results(results))
    if args.json:
        results_to_json(results, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "STANDARD_SCENARIO",
    "SCENARIOS",
    "ARMS",
    "optimized_arm",
    "run_fleet_scale",
    "run_scenario",
    "smoke_scenario",
    "smoke_scenarios",
    "format_results",
    "main",
]
