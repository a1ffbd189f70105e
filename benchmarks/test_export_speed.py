"""Fleet-row microbenchmark: stacked compression-error norms and the column-built export.

Two per-row Python loops of a 10,000-worker lock-step step became one array
operation each:

* ``BaseTrainer._encode_rows`` takes every residual norm from one stacked
  ``(n, 1, d) @ (n, d, 1)`` product instead of one ``sqrt(r @ r)`` per row;
* ``TrainingHistory.to_dict()`` builds its per-worker timelines and wire
  totals once from the compact columns instead of merging 10,000
  ``WorkerTimeline`` objects attribute by attribute (twice), the export
  frozen in ``tests/telemetry_reference.py``.

The end-to-end win is the repository benchmark's ``sync_10k_topk``; this
file times each stage alone.  Assertions are same-machine wall-clock ratios
(min over repeats, as in ``test_gar_kernels_speed.py``), never raw seconds,
and each pair of arms is asserted bytes-equal first.
"""

from __future__ import annotations

import json
import timeit

import numpy as np

import tests.telemetry_reference as reference
from repro.cluster.telemetry import TrainingHistory

FLEET = 10_000


def test_stacked_norms_are_at_least_20x_the_row_loop_at_10k_by_55():
    residuals = np.random.default_rng(0).standard_normal((FLEET, 55))
    loop = lambda: np.array(  # noqa: E731
        [float(np.sqrt(residuals[i] @ residuals[i])) for i in range(FLEET)]
    )
    stacked = lambda: np.sqrt((residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0])  # noqa: E731
    assert stacked().tobytes() == loop().tobytes()
    loop_s = min(timeit.repeat(loop, number=1, repeat=5))
    stacked_s = min(timeit.repeat(stacked, number=1, repeat=5))
    speedup = loop_s / stacked_s
    print(f"\nnorms (10000, 55): loop {loop_s*1e3:.2f}ms, "
          f"stacked {stacked_s*1e3:.2f}ms, {speedup:.1f}x")
    assert speedup >= 20.0, (
        f"stacked norms are only {speedup:.1f}x the per-row loop; "
        "68x measured when they landed"
    )


def _fleet_history() -> TrainingHistory:
    """A compact 10,000-worker history shaped like three ``sync_10k_topk`` steps."""
    rng = np.random.default_rng(1)
    history = TrainingHistory(compact=True)
    ids = list(range(FLEET))
    history.register_workers(ids)
    for _ in range(3):
        history.record_wire_batch(
            ids,
            bytes_sent=rng.integers(100, 200, FLEET).astype(float),
            bytes_received=rng.integers(1000, 2000, FLEET).astype(float),
            queueing_delay=rng.random(FLEET),
            compression_error=rng.random(FLEET),
        )
        for wid in ids:
            timeline = history.timeline_for(wid)
            timeline.rounds_completed += 1
            timeline.compute_seconds += 0.01
            timeline.transfer_seconds += 0.002
    return history


def test_column_export_is_at_least_1_5x_the_object_merge_at_10k():
    history = _fleet_history()
    assert json.dumps(history.to_dict(), sort_keys=True) == json.dumps(
        reference.to_dict(history), sort_keys=True
    )
    merge_s = min(timeit.repeat(lambda: reference.to_dict(history), number=1, repeat=5))
    columns_s = min(timeit.repeat(history.to_dict, number=1, repeat=5))
    speedup = merge_s / columns_s
    print(f"\nto_dict 10k compact: object merge {merge_s*1e3:.1f}ms, "
          f"columns {columns_s*1e3:.1f}ms, {speedup:.2f}x")
    assert speedup >= 1.5, (
        f"the column-built export is only {speedup:.2f}x the object merge at "
        "10,000 workers; 4x measured on this history when it landed"
    )
