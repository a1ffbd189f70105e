"""Fleet-scale scenario grid: accounting, budgets and replay at 50–10,000 workers.

Seven deployments, each pinned to one regime of the simulator's hot paths —
lock-step rounds, quorum-driven async streams, WAN-contended broadcasts,
strong-GAR aggregation under attack, conv-heavy worker math — run exactly
as a user would launch them: every scenario is **single-arm** and carries
its own ``compute_mode`` / ``compact_telemetry``.  Speed claims are not made
here: the repository benchmark (``bench/run.py``, ``bench/compare.py``)
states them in absolute calibrated numbers on whole runs.  This driver
checks what ``bench/`` does not cover:

* the closed-form lock-step event budget (``num_workers * max_steps``
  dispatched events, peak queue = ``num_workers``);
* ``sync_10k``'s absolute wall-clock / tracemalloc budgets at the full
  10,000-worker count;
* the region-sharded service's cross-region byte cut versus an unsharded
  twin (``sharded_wan``);
* ``conv_fleet`` (no ``bench/`` workload runs a conv model);
* the :class:`~repro.cluster.profiler.SimProfiler` split's arithmetic and
  its scenario-specific buckets;
* a two-run replay of every scenario (``--determinism-check``).

The grid:

``sync_fleet``
    The standard 1000-worker lock-step scenario (median GAR, top-k/8
    uplink, tiny logistic model) — wall-clock is simulator overhead.
``async_quorum``
    The same deployment under ``--mode async`` with a quorum policy: the
    event stream interleaves FETCH/COMPUTE/PUSH per worker and the event
    loop's run coalescing + O(1) admission bookkeeping carry the load.
``wan_delta``
    Async delta broadcasts on a shared WAN profile with fair link sharing
    — the contended links exercise the ``link_reschedule`` path.  A
    broadcast codec gates the fleet kernel off, so the scenario runs the
    exact compute path.
``bulyan_attack``
    Bulyan under an active sign-flip adversary: the batched crafting path
    runs against a GAR whose O(n^2) distance work dominates.
``conv_fleet``
    A conv model (``small-cnn``) on synthetic CIFAR under the fleet
    compute kernel — the im2col stacked-batch backward.
``sync_10k``
    The lock-step scenario at 10,000 workers — one order of magnitude past
    the standard grid and the ROADMAP's upper fleet target.  The smoke job
    runs it at full worker count and gates wall-clock and peak heap
    against absolute budgets, witnessing that the SoA hot paths stay
    sub-budget (and non-OOM) at that scale.
``sharded_wan``
    A dense lock-step deployment on a four-region WAN with the parameter
    service region-sharded (``--server-topology region-sharded``): each
    worker's home slice is served in-region and the inter-server shard
    gather is priced as measured wire sessions.  The smoke job additionally
    runs an *unsharded* twin of the deployment and asserts the per-region
    sharding cuts the measured cross-region bytes — the service's headline
    systems claim.

Timing is reported min-and-median over repeats next to dispatched events
per second, for orientation only — nothing gates on it except the
``sync_10k`` budget.  One extra repeat runs under
:class:`~repro.cluster.profiler.SimProfiler` and each scenario's payload
carries the per-subsystem second/share split.

Run directly for the CI jobs (``--scenarios`` narrows any of them)::

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
#: 55-parameter logistic model keeps the actual math negligible.  The top-k
#: codec exercises the batched sparsifier (selection + scatter), the median
#: GAR the dense coordinate-wise kernel; the fleet compute kernel and
#: compact telemetry are how a deployment this size is meant to be run.
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
    "compute_mode": "fleet",
    "compact_telemetry": True,
    "seed": 7,
    "max_steps": 5,
}

#: The grid.  Each scenario is the flat deployment config plus:
#:
#: * ``extra`` — additional ``build_trainer`` kwargs (mode, sync policy,
#:   link profile, broadcast codec, attack);
#: * ``smoke`` — scenario overrides for the scaled-down CI smoke run;
#: * ``budget`` — absolute wall / heap ceilings (``sync_10k`` only).
SCENARIOS: Dict[str, Dict] = {
    "sync_fleet": {
        **STANDARD_SCENARIO,
        "smoke": {"num_workers": 200, "max_steps": 3},
    },
    "async_quorum": {
        **STANDARD_SCENARIO,
        "extra": {"mode": "async", "sync_policy": "quorum"},
        "smoke": {"num_workers": 150, "max_steps": 3},
    },
    "wan_delta": {
        **STANDARD_SCENARIO,
        "num_workers": 400,
        # A broadcast codec gates the fleet kernel off: run the exact path.
        "compute_mode": "exact",
        "compact_telemetry": False,
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
        "extra": {"attack": "sign-flip"},
        "smoke": {"num_workers": 60, "max_steps": 3},
    },
    "sync_10k": {
        **STANDARD_SCENARIO,
        "num_workers": 10_000,
        "max_steps": 3,
        # The smoke run keeps the full 10k fleet (that scale is the point)
        # and trims steps; the absolute wall/heap budgets gate it.  Both are
        # deliberately loose multiples of the measured numbers (~0.3 s /
        # ~40 MB): the wall budget catches hangs and quadratic blowups on a
        # slow container without flaking, the tracemalloc ceiling catches
        # 10k-worker memory regressions (a return to per-entry Python
        # object pools) long before the runner OOMs.
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
        "compute_mode": "exact",
        "compact_telemetry": False,
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
        "compute_mode": "fleet",
        "compact_telemetry": True,
        "seed": 7,
        "max_steps": 5,
        "smoke": {"num_workers": 12, "max_steps": 2},
    },
}


def _select(names: Optional[Sequence[str]]) -> Dict[str, Dict]:
    """The registered scenarios named by *names* (all of them for ``None``)."""
    if names is None:
        return dict(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenarios {unknown}; choose from {sorted(SCENARIOS)}"
        )
    return {name: SCENARIOS[name] for name in names}


def smoke_scenarios(names: Optional[Sequence[str]] = None) -> Dict[str, Dict]:
    """The grid (or the *names* subset) scaled down for the CI smoke job."""
    return {
        name: {**scenario, **scenario.get("smoke", {})}
        for name, scenario in _select(names).items()
    }


def _build(scenario: Dict, *, profiler: Optional[SimProfiler] = None):
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
        compute_mode=scenario["compute_mode"],
        compact_telemetry=scenario["compact_telemetry"],
        seed=scenario["seed"],
        profiler=profiler,
        **scenario.get("extra", {}),
    )


def run_scenario(
    scenario: Dict,
    *,
    repeats: int = 3,
    profile_split: bool = True,
) -> Dict:
    """Time one scenario over *repeats* fresh deployments; return its node.

    Every repeat rebuilds the trainer (same seed, identical trajectory) and
    times only :meth:`~repro.cluster.trainer.BaseTrainer.run`.  The
    profiler pass and — for a scenario with a ``budget``, whose heap ceiling
    needs it — the tracemalloc pass run *outside* the timed repeats so their
    instrumentation cost never contaminates the wall-clock numbers.  Each
    measured run starts from a collected heap: the cyclic garbage of the
    preceding 10k-worker trainers otherwise gets collected inside whichever
    run comes next (seen as a one-off collapse of the profiled split).
    """
    scenario = dict(scenario)
    config = TrainerConfig(max_steps=scenario["max_steps"], eval_every=0)
    wall_clocks: List[float] = []
    trainer = None
    for _ in range(repeats):
        trainer = _build(scenario)
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
    node = {
        "scenario": scenario,
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
        # The measured inter-server wire ledger (per-shard push/fetch split
        # and the gather sessions) is what the sharded scenarios report on;
        # it is all-zero on a one-actor service.
        "interserver": trainer.history.interserver_summary(),
    }
    if profile_split:
        profiler = SimProfiler()
        profiled = _build(scenario, profiler=profiler)
        gc.collect()
        profiler.start_run()
        try:
            profiled.run(config)
        finally:
            profiler.stop_run()
        node["subsystems"] = profiler.to_dict()
    if "budget" in scenario:
        heap_trainer = _build(scenario)
        gc.collect()
        tracemalloc.start()
        try:
            heap_trainer.run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        node["peak_heap_bytes"] = int(peak)
    return node


def run_fleet_scale(
    scenarios: Union[None, Sequence[str], Dict[str, Dict]] = None,
    *,
    repeats: int = 3,
    profile_split: bool = True,
) -> Dict:
    """Run the grid; returns the ``BENCH_simulator`` payload.

    *scenarios* selects the grid: ``None`` runs every registered scenario,
    a sequence of names runs that subset, and a ``name -> scenario`` dict
    runs custom configs (the smoke job passes the scaled-down grid).
    """
    grid = dict(scenarios) if isinstance(scenarios, dict) else _select(scenarios)
    return {
        "benchmark": "fleet_scale",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "scenarios": {
            name: run_scenario(scenario, repeats=repeats, profile_split=profile_split)
            for name, scenario in grid.items()
        },
    }


def format_results(results: Dict) -> str:
    """Pretty-print the scenario grid (and each profiled subsystem split)."""
    rows = []
    for name, node in results["scenarios"].items():
        scenario = node["scenario"]
        rows.append(
            (
                name,
                scenario["num_workers"],
                scenario.get("extra", {}).get("mode", "sync"),
                scenario["gar"],
                scenario["model"],
                scenario["max_steps"],
                node["wall_clock_s"]["min"],
                node["wall_clock_s"]["median"],
                node["events_dispatched"],
                node["events_per_s"],
                node["peak_queue_size"],
            )
        )
    blocks = [
        format_table(
            ["scenario", "workers", "mode", "gar", "model", "steps", "wall_min_s",
             "wall_med_s", "events", "events_per_s", "peak_queue"],
            rows,
            title="fleet-scale scenario grid",
        )
    ]
    for name, node in results["scenarios"].items():
        subsystems = node.get("subsystems")
        if subsystems:
            split_rows = [
                (sub, stats["seconds"], stats["share"], stats["calls"])
                for sub, stats in subsystems["subsystems"].items()
                if stats["calls"]
            ]
            blocks.append(
                format_table(
                    ["subsystem", "seconds", "share", "calls"],
                    split_rows,
                    title=f"{name} per-subsystem split (profiled repeat)",
                )
            )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------- CI hooks
def _smoke(grid: Dict[str, Dict], json_path: Optional[str], repeats: int) -> int:
    """Scaled-down end-to-end grid: every scenario trains, accounting is coherent."""
    results = run_fleet_scale(grid, repeats=repeats)
    nodes = results["scenarios"]
    print(format_results(results))
    failures = 0
    for name, node in nodes.items():
        scenario = node["scenario"]
        if scenario.get("extra", {}).get("mode") != "async":
            # Lock-step rounds have a closed-form event budget (the async
            # stream's count depends on the quorum schedule).
            expected = scenario["num_workers"] * scenario["max_steps"]
            if node["events_dispatched"] != expected:
                print(
                    f"FAIL: {name} dispatched {node['events_dispatched']} "
                    f"events, expected {expected}",
                    file=sys.stderr,
                )
                failures += 1
            if node["peak_queue_size"] != scenario["num_workers"]:
                print(
                    f"FAIL: {name} peak queue {node['peak_queue_size']}, "
                    f"expected {scenario['num_workers']}",
                    file=sys.stderr,
                )
                failures += 1
        loss = node["final_mean_loss"]
        if loss is None or not np.isfinite(loss):
            print(f"FAIL: {name} final mean loss {loss!r} is not finite",
                  file=sys.stderr)
            failures += 1
        budget = scenario.get("budget")
        if budget:
            # Absolute gates for the at-scale scenario: it must finish
            # inside the CI wall budget and under the tracemalloc heap
            # ceiling (10k-worker memory regressions fail fast here, before
            # the full matrix even runs).
            wall = node["wall_clock_s"]["min"]
            if wall > budget["wall_s"]:
                print(
                    f"FAIL: {name} wall clock {wall:.2f}s exceeds the "
                    f"{budget['wall_s']}s smoke budget",
                    file=sys.stderr,
                )
                failures += 1
            peak = node.get("peak_heap_bytes")
            if peak is None or peak > budget["heap_bytes"]:
                print(
                    f"FAIL: {name} peak heap {peak} exceeds the "
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

    The ``sharded_wan`` node already carries the measured inter-server
    ledger; this check runs an *unsharded* twin of the same deployment and
    compares cross-region bytes.  On a ``wan:`` profile the single server is
    the core hub *outside* every region — each worker's push and fetch rides
    its region's WAN bottleneck, so the twin's cross-region bytes are its
    **total** wire bytes.  The region-sharded service serves each worker's
    home slice from the in-region shard (that slice never touches the WAN)
    at the cost of the measured inter-server gather, which must still come
    out ahead.
    """
    node = nodes.get("sharded_wan")
    if node is None:
        return 0
    scenario = node["scenario"]
    inter = node["interserver"]
    if inter["gather_bytes"] <= 0:
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
    twin = _build(twin_scenario)
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


def _determinism_check(grid: Dict[str, Dict]) -> int:
    """Replay every scenario twice; any telemetry drift fails.

    The fleet compute kernel, the batched codec and the batched Byzantine
    crafting draw from dedicated RNG streams, so two builds from the same
    seed must produce byte-identical histories — on the exact path *and*
    the statistically-equivalent fleet path, in every regime of the grid.
    """
    import json

    for name, scenario in grid.items():
        config = TrainerConfig(max_steps=scenario["max_steps"], eval_every=0)
        replays = []
        for _ in range(2):
            trainer = _build(scenario)
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
                f"FAIL: {name} replay diverged between identical runs",
                file=sys.stderr,
            )
            return 1
    print(
        "fleet-scale determinism: OK "
        f"({', '.join(grid)} replay identically)"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point for the CI smoke / determinism / matrix jobs."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.fleet_scale",
        description="Fleet-scale scenario grid (accounting, budgets, replay)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down end-to-end grid (CI perf-smoke job)")
    parser.add_argument("--determinism-check", action="store_true",
                        help="replay every smoke-scale scenario twice and diff telemetry")
    parser.add_argument("--json", default=None,
                        help="write the payload to this JSON file")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats per scenario (default 3; 2 with --smoke)")
    parser.add_argument("--scenarios", nargs="+", default=None,
                        choices=sorted(SCENARIOS), help="scenario subset to run")
    args = parser.parse_args(argv)
    if args.determinism_check:
        return _determinism_check(smoke_scenarios(args.scenarios))
    if args.smoke:
        return _smoke(
            smoke_scenarios(args.scenarios), args.json,
            repeats=2 if args.repeats is None else args.repeats,
        )
    results = run_fleet_scale(
        args.scenarios, repeats=3 if args.repeats is None else args.repeats
    )
    print(format_results(results))
    if args.json:
        results_to_json(results, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "STANDARD_SCENARIO",
    "SCENARIOS",
    "run_fleet_scale",
    "run_scenario",
    "smoke_scenarios",
    "format_results",
    "main",
]
