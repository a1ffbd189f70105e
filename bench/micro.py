"""One microbenchmark per layer: absolute, calibrated throughput of its hot call.

``python3 bench/run.py --micro`` runs :func:`suite` (<= 1 s each); a traced
workload run (``--trace 1``) runs the handful :func:`for_workload` picks — the
workload's own codec, shapes and link discipline — with a shorter budget, and
reports them as the ``*_per_s`` per-layer metrics.  Rates are per calibrated
second.  Inputs come from a fixed generator: a microbenchmark measures the
layer, not the seed.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.cluster.codec import make_codec
from repro.cluster.events import Event, EventQueue
from repro.cluster.fleet import FleetComputeKernel
from repro.cluster.link import LinkScheduler
from repro.core.kernels import (
    bulyan_select,
    multi_krum_select,
    neighbour_sum_scores,
    pairwise_squared_distances,
)
from repro.nn.models.registry import make_model

from bench import calibrate
from bench.workloads import Workload

TINY_SHAPE = (1000, 55)
PAPER_SHAPE = (19, 99_370)


def rate(work: float, call: Callable[[], object], budget_s: float) -> float:
    """*work* units per calibrated second of ``call()`` (median of the repeats)."""
    call()
    before = calibrate.reading()
    samples = []
    started = time.perf_counter()
    while len(samples) < 3 or time.perf_counter() - started < budget_s:
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    after = calibrate.reading()
    return work / (statistics.median(samples) * calibrate.scale(before + after))


def events_mix(budget_s: float) -> float:
    """Queue operations per second: bulk push, then pop / re-push / cancel."""
    times = np.random.default_rng(0).random(4000)

    def call():
        queue = EventQueue()
        queue.push_many([Event(time=float(t), kind="arrive") for t in times[:2000]])
        for i, t in enumerate(times[2000:]):
            queue.pop()
            pushed = queue.push(Event(time=float(t) + 1.0, kind="arrive"))
            if i % 4 == 0:
                pushed.cancel()
        while queue:
            queue.pop()

    return rate(2000 + 2000 * 2 + 500 + 1500, call, budget_s)


def codec_frames(name: str, shape: Tuple[int, int], budget_s: float) -> float:
    """Frames per second through ``encode_decode_batch`` at *shape*."""
    matrix = np.random.default_rng(1).standard_normal(shape)
    sparsifying = name in ("top-k", "random-k")
    codec = make_codec(name, k=max(shape[1] // 8, 1) if sparsifying else None, rng=2)
    return rate(shape[0], lambda: codec.encode_decode_batch(matrix), budget_s)


def link_simulate(sharing: str, budget_s: float) -> float:
    """Sessions per second through the closed-world ``simulate`` (500 jobs)."""
    starts = np.random.default_rng(3).random(500) * 0.01
    jobs = [(float(s), 3520.0) for s in starts]
    link = LinkScheduler(bandwidth_gbps=0.01, latency_s=0.02, sharing=sharing)
    return rate(len(jobs), lambda: link.simulate(jobs), budget_s)


def link_events(sharing: str, budget_s: float) -> float:
    """Sessions per second event-driven: ``open_many`` bursts, ``advance`` to each completion."""
    bursts = [[(220.0 + 8.0 * i, i, {}, None) for i in range(50)] for _ in range(4)]

    def call():
        link = LinkScheduler(bandwidth_gbps=0.01, latency_s=0.02, sharing=sharing)
        now = 0.0
        for burst in bursts:
            link.open_many(now, burst)
            now += 0.001
        while link.active_sessions:
            now = link.next_completion()
            link.pop_completed(now)

    return rate(200, call, budget_s)


def distance_pairs(shape: Tuple[int, int], budget_s: float) -> float:
    """Pairs per second through ``pairwise_squared_distances`` at *shape*."""
    matrix = np.random.default_rng(4).standard_normal(shape)
    pairs = shape[0] * (shape[0] - 1) // 2
    return rate(pairs, lambda: pairwise_squared_distances(matrix), budget_s)


def _distances(n: int) -> np.ndarray:
    return pairwise_squared_distances(np.random.default_rng(5).standard_normal((n, 55)))


def bulyan_selections(n: int, f: int, budget_s: float) -> float:
    """``bulyan_select`` calls per second at *n* rows."""
    distances = _distances(n)
    return rate(1, lambda: bulyan_select(distances, f, n - 2 * f), budget_s)


def multi_krum_selections(n: int, f: int, budget_s: float) -> float:
    """Score + ``multi_krum_select`` calls per second at *n* rows."""
    distances = _distances(n)

    def call():
        return multi_krum_select(neighbour_sum_scores(distances, n - f - 2), n - f)

    return rate(1, call, budget_s)


def fleet_samples(model: str, model_kwargs: Dict, workers: int, batch: int,
                  budget_s: float) -> float:
    """Samples per second through one ``FleetComputeKernel.compute`` pass."""
    network = make_model(model, rng=6, **model_kwargs)
    kernel = FleetComputeKernel(network)
    parameters = network.get_parameters()
    generator = np.random.default_rng(7)
    features = generator.standard_normal((workers, batch, model_kwargs["input_dim"]))
    labels = generator.integers(0, model_kwargs["num_classes"], size=(workers, batch))
    return rate(workers * batch, lambda: kernel.compute(parameters, features, labels), budget_s)


def suite(budget_s: float = 0.8) -> Dict[str, float]:
    """Every layer's microbenchmark at the fixed shapes: ``name -> rate (1/s)``."""
    results = {"events.mix.ops_per_s": events_mix(budget_s)}
    for name in ("identity", "top-k", "random-k", "qsgd"):
        for shape in (TINY_SHAPE, PAPER_SHAPE):
            results[f"codec.{name}.{shape[0]}x{shape[1]}.frames_per_s"] = codec_frames(
                name, shape, budget_s
            )
    for sharing in ("fair", "fifo"):
        results[f"link.simulate.{sharing}.sessions_per_s"] = link_simulate(sharing, budget_s)
        results[f"link.events.{sharing}.sessions_per_s"] = link_events(sharing, budget_s)
    for shape in ((600, 55), PAPER_SHAPE):
        results[f"kernels.distances.{shape[0]}x{shape[1]}.pairs_per_s"] = distance_pairs(
            shape, budget_s
        )
    results["kernels.multi_krum_select.600.selections_per_s"] = multi_krum_selections(
        600, 20, budget_s
    )
    results["kernels.bulyan_select.600.selections_per_s"] = bulyan_selections(600, 20, budget_s)
    results["fleet.compute.logistic.1000x2.samples_per_s"] = fleet_samples(
        "logistic", {"input_dim": 10, "num_classes": 5}, 1000, 2, budget_s
    )
    return results


def for_workload(workload: Workload, budget_s: float = 0.15) -> Dict[str, float]:
    """The ``*_per_s`` per-layer metrics, at *workload*'s own shapes."""
    trainer = workload.trainer
    dim = trainer["model_kwargs"]["input_dim"]
    shape = PAPER_SHAPE if dim > 100 else TINY_SHAPE
    sharing = trainer.get("link_sharing", "fair")
    link = link_simulate if workload.lock_step else link_events
    return {
        "events.per_s": events_mix(budget_s),
        "codec.frames_per_s": codec_frames(trainer.get("codec", "identity"), shape, budget_s),
        "link.sessions_per_s": link(sharing, budget_s),
        "kernels.pairs_per_s": distance_pairs((min(shape[0], 600), shape[1]), budget_s),
        "kernels.selections_per_s": bulyan_selections(600, 20, budget_s),
        "nn.samples_per_s": fleet_samples(
            trainer["model"], trainer["model_kwargs"], min(workload.num_workers, 1000),
            trainer["batch_size"], budget_s,
        ),
    }
