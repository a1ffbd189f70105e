"""The traced run: per-layer metrics from one workload, wrapped from outside.

Per traced session the child installs the tracer (:mod:`bench.trace`), runs
one session, and reads every per-layer metric off the span aggregates, the
wrapper unit counts and the history's public accessors.  Traced sessions
alternate with untraced ones, so ``trace.overhead_ratio`` compares like with
like.  The same child then launches the deployment three times through
``python -m repro.runner`` (``runner.cli_wall_s``; each summary must hash to
the API session's), runs one session under the repository's own
``SimProfiler`` (its ``unaccounted`` share, beside the outside split), two
short sessions under ``sys.setprofile`` (Python-level calls per step — a count
that must repeat exactly), and the workload's microbenchmarks.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List

from repro.cluster.profiler import SimProfiler

from bench import calibrate, micro
from bench.harness import (
    ROOT, Outcome, host_block, metric, percentile, run_cli, run_session,
)
from bench.metrics import PER_LAYER
from bench.trace import LAYERS, Snapshot, Tracer
from bench.workloads import Workload

#: Steps of the ``sys.setprofile`` sessions: a count per step needs few.
COUNTED_STEPS = 2
#: Share of ``--seconds`` given to the (untraced, traced) session pairs; the
#: CLI launches and the profiler, counting and microbenchmark passes take the rest.
PAIR_SHARE = 0.4
CLI_LAUNCHES = 3
#: The acceptance bar on the span arithmetic: layer self times plus the
#: session's own must reproduce the session wall measured from outside.
CLOSURE_TOLERANCE = 0.01
#: ... or this many seconds, for smoke-scale sessions: the benchmark's own code
#: between the four timed phases takes ~0.5 ms, which is 4 % of a 14 ms session.
CLOSURE_FLOOR_S = 0.002


def session_metrics(workload: Workload, shot: Snapshot, session, trainer,
                    history) -> Dict[str, float]:
    """Every per-layer metric one traced session yields.

    Span times are scaled to calibrated seconds by the session's own ratio
    (the boundary probes of :func:`~bench.harness.run_session`).
    """
    scale = session.wall.cal / session.wall.raw
    values: Dict[str, float] = {}
    layers = shot.by_layer()
    for layer, row in layers.items():
        values[f"{layer}.self_s"] = row["self_s"] * scale
        values[f"{layer}.calls"] = row["calls"]

    steps = [step.cal * 1e3 for step in session.steps]
    values["trainer.self_share"] = layers["trainer"]["self_s"] / shot.duration
    values["trainer.step_ms_p50"] = statistics.median(steps)
    values["trainer.step_ms_p90"] = percentile(steps, 0.90)
    values["trainer.final_loss"] = session.final_loss
    values["trainer.final_accuracy"] = session.final_accuracy

    values["events.dispatched"] = session.events_dispatched
    values["events.pushed"] = shot.total("events", "push") + shot.total("events", "push_many")
    values["events.cancelled"] = shot.total("events", "cancel")
    values["events.peak_queue"] = session.peak_queue

    wire = history.wire_summary()
    frames = sum(
        shot.total("codec", attribute, outside_only=True)
        for attribute in ("encode", "encode_batch", "encode_decode_batch")
    )
    values["codec.frames"] = frames
    values["codec.raw_mb"] = frames * trainer.cost_model.gradient_bytes(trainer.server.dim) / 1e6
    values["codec.wire_mb"] = wire["bytes_sent"] / 1e6
    values["codec.ratio"] = (
        values["codec.raw_mb"] / values["codec.wire_mb"] if wire["bytes_sent"] else 0.0
    )

    values["link.sessions"] = sum(
        shot.total("link", attribute, outside_only=True)
        for attribute in ("open", "open_many", "simulate")
    )
    values["link.reschedules"] = shot.total(
        "link", "next_completion", "calls", outside_only=True
    )
    values["link.sim_queueing_s"] = wire["queueing_delay_seconds"]

    sent = shot.total("network", "split")
    values["network.packets_sent"] = sent
    values["network.packets_dropped"] = sent - shot.total("network", "reassemble")
    values["network.drop_ratio"] = values["network.packets_dropped"] / sent if sent else 0.0

    inter = history.interserver_summary()
    values["service.push_cross_mb"] = inter["push_cross_bytes"] / 1e6
    values["service.fetch_cross_mb"] = inter["fetch_cross_bytes"] / 1e6
    values["service.gather_mb"] = inter["gather_bytes"] / 1e6
    values["service.gather_sessions"] = inter["gather_sessions"]

    values["server.aggregations"] = history.num_updates
    values["server.updates"] = shot.total("server", "apply_update", "calls")
    values["server.sim_busy_share"] = history.server_utilisation()["busy_fraction"]

    sync = history.sync_summary()
    admitted = sum(record.gradients_received for record in history.steps)
    rejected = shot.total("sync", "admit")
    values["sync.admitted"] = admitted
    values["sync.rejected_stale"] = rejected
    values["sync.carried"] = sync["carried_gradients"]
    values["sync.dropped"] = sync["dropped_stragglers"]
    offered = admitted + rejected + sync["dropped_stragglers"]
    values["sync.admit_ratio"] = admitted / offered if offered else 0.0

    values["fleet.pool_puts"] = shot.total("fleet", "put", "calls")
    values["fleet.pool_drains"] = shot.total("fleet", "drain", "calls")
    values["fleet.compute_calls"] = shot.total("fleet", "compute", "calls")

    values["kernels.distance_s"] = scale * shot.total(
        "kernels", "pairwise_squared_distances", "total_s"
    )
    values["kernels.select_s"] = scale * sum(
        shot.total("kernels", attribute, "total_s")
        for attribute in ("multi_krum_select", "bulyan_select", "brute_select")
    )
    values["kernels.distance_pairs"] = shot.total("kernels", "pairwise_squared_distances")

    byzantine = workload.trainer.get("num_byzantine", 0)
    selections = [r.selected_workers for r in history.steps if r.selected_workers is not None]
    let_in = sum(sum(1 for worker in chosen if worker < byzantine) for chosen in selections)
    values["gar.selected_byzantine"] = let_in
    values["gar.byz_excluded_ratio"] = (
        1.0 - let_in / (byzantine * len(selections)) if byzantine and selections else 1.0
    )

    cache = history.distance_cache_summary()
    values["distance_cache.hit_pairs"] = cache["hit_pairs"]
    values["distance_cache.miss_pairs"] = cache["miss_pairs"]

    values["nn.grad_calls"] = shot.total("nn", "loss_and_gradient")
    values["data.load_s"] = session.load.cal
    values["builder.build_s"] = session.build.cal
    values["telemetry.records"] = sum(
        row["calls"] for name, row in shot.by_function().items()
        if name.startswith("telemetry.") and name.rsplit(".", 1)[-1].startswith("record_")
    )
    values["telemetry.export_s"] = session.export.cal
    values["telemetry.doc_kb"] = session.doc_bytes / 1e3

    values["trace.spans"] = shot.total_calls()
    values["trace.session_self_s"] = (shot.root_self_s - sum(session.probes)) * scale
    return values


@contextmanager
def profiled_run(profiler: SimProfiler) -> Iterator[None]:
    """The runner's own bracket: ``start_run`` / ``stop_run`` around ``trainer.run``."""
    profiler.start_run()
    try:
        yield
    finally:
        profiler.stop_run()


def count_python_calls(workload: Workload, seed: int) -> float:
    """Python-level calls per step of a short session's ``trainer.run``."""
    short = replace(workload, steps=COUNTED_STEPS, eval_every=0, accuracy_floor=0.0)
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    @contextmanager
    def counting() -> Iterator[None]:
        sys.setprofile(profile)
        try:
            yield
        finally:
            sys.setprofile(None)

    run_session(short, seed, around_run=counting)
    return calls[0] / COUNTED_STEPS


def trace_workload(workload: Workload, seed: int, seconds: float,
                   spans_out: str = "") -> Dict:
    """Run *workload* traced for *seconds*; returns the result document."""
    outcome = Outcome()
    tracer = Tracer()
    warm, _, _ = run_session(workload, seed)
    outcome.record("warm-up", warm.failures)

    started = time.perf_counter()
    plain: List[float] = []
    traced: List[float] = []
    rows: List[Dict[str, float]] = []
    readings: List[float] = []
    while not traced or time.perf_counter() - started < seconds * PAIR_SHARE:
        session, _, _ = run_session(workload, seed)
        plain.append(session.wall.cal)
        readings += session.probes
        outcome.record(f"untraced session {len(plain)}", session.failures)

        wrappers = tracer.install()
        try:
            session, trainer, history = run_session(workload, seed, tracer=tracer)
        finally:
            tracer.uninstall()
        shot = session.trace
        traced.append(session.wall.cal)
        readings += session.probes
        rows.append(session_metrics(workload, shot, session, trainer, history))
        del trainer, history

        problems = list(session.failures)
        if session.sim_digest != warm.sim_digest:
            problems.append(
                "sim_digest differs from the untraced warm-up's: the wrappers "
                "changed the simulation"
            )
        # The root span also holds the session's calibration probes.
        attributed = (sum(r["self_s"] for r in shot.by_layer().values())
                      + shot.root_self_s - sum(session.probes))
        slack = max(CLOSURE_TOLERANCE * session.wall.raw, CLOSURE_FLOOR_S)
        if abs(attributed - session.wall.raw) > slack:
            problems.append(
                f"self times sum to {attributed:.4f} s, the session took "
                f"{session.wall.raw:.4f} s"
            )
        if workload.trainer.get("lossy_links") and not rows[-1]["network.packets_dropped"] > 0:
            problems.append("lossy uplinks dropped no packet")
        outcome.record(f"traced session {len(traced)}", problems)
    if spans_out:
        shot.write(spans_out)

    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    # Paired: neighbours in time share the host's speed state.
    values["trace.overhead_ratio"] = statistics.median(
        after / before for before, after in zip(plain, traced)
    )

    # The same deployment through the command line: interpreter start, imports,
    # flag validation, session, JSON file.  A child cannot be probed from
    # outside, so each launch is scaled by the kernel readings around it.
    launches: List[float] = []
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as scratch:
        before = calibrate.reading()
        for index in range(CLI_LAUNCHES):
            raw, digest, error = run_cli(workload, seed, scratch)
            after = calibrate.reading()
            launches.append(raw * calibrate.scale(before + after))
            before = after
            if not error and digest != warm.doc_digest:
                error = (f"summary digest {digest[:12]} differs from the API "
                         f"session's {warm.doc_digest[:12]}")
            outcome.record(f"cli launch {index}", [error] if error else [])
    values["runner.cli_wall_s"] = statistics.median(launches)

    profiler = SimProfiler()
    session, _, _ = run_session(
        workload, seed, profiler=profiler, around_run=lambda: profiled_run(profiler)
    )
    outcome.record("profiled session", session.failures)
    split = profiler.to_dict()
    values["simprofiler.unaccounted_share"] = (
        split["unaccounted_s"] / split["wall_clock_s"] if split["wall_clock_s"] else 0.0
    )

    counts = [count_python_calls(workload, seed) for _ in range(2)]
    values["trainer.py_calls_per_step"] = counts[0]
    outcome.record(
        "python call count",
        [] if counts[0] == counts[1]
        else [f"calls per step did not repeat: {counts[0]} then {counts[1]}"],
    )

    values.update(micro.for_workload(workload))

    units = {name: unit for name, unit, _ in PER_LAYER}
    host = host_block(readings)
    host["wrappers"] = wrappers
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": True,
        "host": host,
        "metrics": {name: metric(float(values[name]), units[name]) for name in units},
        "detail": {
            "traced_sessions": len(traced),
            "layer_share": {
                layer: values[f"{layer}.self_s"] / sum(
                    values[f"{other}.self_s"] for other in LAYERS
                )
                for layer in LAYERS
            },
        },
        "sim_digest": warm.sim_digest,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
    }
