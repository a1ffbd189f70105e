"""The names, units, directions and bounds of every metric the benchmark emits.

``BENCHMARK.json`` at the root of the repository is this table written out
(:func:`benchmark_document`; a test keeps the two equal).

End-to-end timings are in **calibrated seconds** (:mod:`bench.calibrate`).
``sim_s`` is simulated seconds — the modelled cluster's time, the paper's own
axis — never host time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from bench.trace import LAYERS
from bench.workloads import WORKLOADS

RUN_SECONDS = 15

#: ``(name, unit, better, bound)``.  The bound is the share of the parent's
#: median by which the metric may worsen before a change counts as a
#: regression.  The simulated metrics repeat exactly for a seed, so a change
#: meant only to speed the simulator up must leave them where they are.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("session_wall_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("sim_time_s", "sim_s", "lower", 0.001),
    ("wire_mb", "MB", "lower", 0.001),
]

_LAYER_EXTRAS: List[Tuple[str, str, str]] = [
    ("trainer.self_share", "ratio", "lower"),
    ("trainer.step_ms_p50", "ms", "lower"),
    ("trainer.step_ms_p90", "ms", "lower"),
    ("trainer.final_loss", "loss", "lower"),
    ("trainer.final_accuracy", "ratio", "higher"),
    ("trainer.py_calls_per_step", "count", "lower"),
    ("events.dispatched", "count", "lower"),
    ("events.pushed", "count", "lower"),
    ("events.cancelled", "count", "lower"),
    ("events.peak_queue", "count", "lower"),
    ("events.per_s", "1/s", "higher"),
    ("codec.frames", "count", "lower"),
    ("codec.raw_mb", "MB", "lower"),
    ("codec.wire_mb", "MB", "lower"),
    ("codec.ratio", "ratio", "higher"),
    ("codec.frames_per_s", "1/s", "higher"),
    ("link.sessions", "count", "lower"),
    ("link.reschedules", "count", "lower"),
    ("link.sim_queueing_s", "sim_s", "lower"),
    ("link.sessions_per_s", "1/s", "higher"),
    ("network.packets_sent", "count", "lower"),
    ("network.packets_dropped", "count", "lower"),
    ("network.drop_ratio", "ratio", "lower"),
    ("service.push_cross_mb", "MB", "lower"),
    ("service.fetch_cross_mb", "MB", "lower"),
    ("service.gather_mb", "MB", "lower"),
    ("service.gather_sessions", "count", "lower"),
    ("server.aggregations", "count", "lower"),
    ("server.updates", "count", "lower"),
    ("server.sim_busy_share", "ratio", "lower"),
    ("sync.admitted", "count", "higher"),
    ("sync.rejected_stale", "count", "lower"),
    ("sync.carried", "count", "lower"),
    ("sync.dropped", "count", "lower"),
    ("sync.admit_ratio", "ratio", "higher"),
    ("fleet.pool_puts", "count", "lower"),
    ("fleet.pool_drains", "count", "lower"),
    ("fleet.compute_calls", "count", "lower"),
    ("kernels.distance_s", "s", "lower"),
    ("kernels.select_s", "s", "lower"),
    ("kernels.distance_pairs", "count", "lower"),
    ("kernels.pairs_per_s", "1/s", "higher"),
    ("kernels.selections_per_s", "1/s", "higher"),
    ("gar.selected_byzantine", "count", "lower"),
    ("gar.byz_excluded_ratio", "ratio", "higher"),
    ("distance_cache.hit_pairs", "count", "higher"),
    ("distance_cache.miss_pairs", "count", "lower"),
    ("nn.grad_calls", "count", "lower"),
    ("nn.samples_per_s", "1/s", "higher"),
    ("data.load_s", "s", "lower"),
    ("builder.build_s", "s", "lower"),
    ("telemetry.records", "count", "lower"),
    ("telemetry.export_s", "s", "lower"),
    ("telemetry.doc_kb", "kB", "lower"),
    ("runner.cli_wall_s", "s", "lower"),
    ("simprofiler.unaccounted_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.session_self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: ``(name, unit, better)`` of the per-layer metrics: for every layer its self
#: time per session and the calls into it, then what each layer counts.
PER_LAYER: List[Tuple[str, str, str]] = [
    row
    for layer in LAYERS
    for row in ((f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower"))
] + _LAYER_EXTRAS


def benchmark_document() -> Dict:
    """What ``BENCHMARK.json`` holds."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
