"""Microbenchmark — incremental distance cache + sharded server compute.

The PR-5 acceptance workload: Bulyan under ``quorum(carry)`` with
heavy-tailed stragglers, so carried gradients re-enter the aggregation
matrix byte-identically round after round.  The benchmark verifies the two
headline properties at CI scale:

* the lock-step trajectory is **bit-identical** with the cache on or off
  (and at any simulated core count) — the cache only changes pricing;
* the cached + sharded cell records **>= 2x lower simulated aggregation
  time** than the uncached single-core path, with nonzero cache hits.

A host-level microbench times the cache's bookkeeping + serve path on a
carried round against the from-scratch kernel, pinning value parity.
"""

import timeit

import numpy as np
import pytest

from repro.core import kernels
from repro.core.distance_cache import DistanceCache, row_fingerprint, row_fingerprints
from repro.experiments.distance_cache import (
    aggregation_speedups,
    run_distance_cache_ablation,
    trajectories_identical,
)

from benchmarks.conftest import run_once


@pytest.fixture(scope="module")
def ablation(profile):
    steps = min(profile.max_steps, 16)
    return run_distance_cache_ablation(
        profile.with_overrides(max_steps=steps), cores=4
    )


def test_carry_heavy_bulyan_cache_ablation(benchmark, profile):
    steps = min(profile.max_steps, 16)
    results = run_once(
        benchmark,
        run_distance_cache_ablation,
        profile.with_overrides(max_steps=steps),
        cores=4,
    )
    assert all(not s["diverged"] for s in results["summaries"])


def test_cache_keeps_trajectory_bit_identical(ablation):
    assert trajectories_identical(ablation)


def test_cached_sharded_aggregation_at_least_2x_cheaper(ablation):
    speedups = aggregation_speedups(ablation)
    assert speedups["cached/sharded"] >= 2.0, speedups
    # Each axis helps on its own as well.
    assert speedups["cached/1-core"] > 1.0
    assert speedups["uncached/sharded"] > 1.0


def test_carry_heavy_workload_produces_cache_hits(ablation):
    by_label = {s["label"]: s for s in ablation["summaries"]}
    cached = by_label["cached/sharded"]
    assert cached["carried_gradients"] > 0
    assert cached["hit_rows"] > 0
    assert 0.0 < cached["hit_rate_pairs"] < 1.0
    assert cached["overlapped_flops"] > cached["distance_flops"]


def test_cache_serve_parity_on_carried_round(benchmark):
    """Host-level: serve a carried round and pin bit-parity with the kernel."""
    rng = np.random.default_rng(3)
    carried = rng.standard_normal((6, 50_000))
    cache = DistanceCache()
    cache.begin_round()
    cache.end_round(carried)

    matrix = np.vstack([carried, rng.standard_normal((13, 50_000))])

    def serve():
        cache.begin_round()
        served = cache.distances(matrix)
        cache.end_round(carried)
        return served

    served = benchmark(serve)
    np.testing.assert_array_equal(
        served, kernels.pairwise_squared_distances(matrix)
    )


def test_batched_fingerprints_bit_identical_to_per_row():
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((17, 513))
    assert row_fingerprints(matrix) == [row_fingerprint(r) for r in matrix]
    # Non-contiguous input (a transposed view) must hash the same rows.
    view = matrix[::2]
    assert row_fingerprints(view) == [row_fingerprint(r) for r in view]


def test_batched_fingerprints_have_no_per_row_overhead_regression():
    """One batched fingerprint call must not be slower than the row loop.

    This is the satellite guard for the attack path: a crafted ``(f, d)``
    payload enters the cache through ``row_fingerprints`` (one contiguify +
    one serialise for the whole matrix) rather than ``f`` per-row calls
    (two numpy conversions each).  The arms are timed in adjacent pairs —
    which arm goes first alternates — and the check reads the median of
    the nine per-pair ratios, so both arms of a ratio see the same host
    speed and one repeat caught in a host slowdown or burst cannot decide
    it (a minimum of each arm's repeats could: one lucky per-row repeat
    failed it).  The 1.2 slack tolerates scheduler jitter while still
    failing on any real per-row regression.
    """
    rng = np.random.default_rng(6)
    matrix = rng.standard_normal((64, 4096))  # an f=64 crafted payload

    def batched():
        return timeit.timeit(lambda: row_fingerprints(matrix), number=20)

    def per_row():
        return timeit.timeit(
            lambda: [row_fingerprint(matrix[i]) for i in range(matrix.shape[0])], number=20
        )

    ratios = []
    for pair in range(9):
        if pair % 2:
            row_seconds = per_row()
            batch_seconds = batched()
        else:
            batch_seconds = batched()
            row_seconds = per_row()
        ratios.append(batch_seconds / row_seconds)
    assert float(np.median(ratios)) <= 1.2, ratios
