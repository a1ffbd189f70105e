"""Compact telemetry: SoA wire columns must export exactly like the object path.

``TrainingHistory(compact=True)`` replaces the per-worker timeline objects'
per-step attribute bumps with preallocated column arrays — the difference
must be invisible to every consumer: ``to_dict``, the wire summary, the
region summary and the merged per-worker timelines.  Exports are compared
as ``json.dumps(..., sort_keys=True)`` bytes: dict ``==`` would pass
``1 == 1.0`` and ``-0.0 == 0.0``.
"""

import json

import numpy as np
import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.telemetry import TrainingHistory
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import gaussian_blobs
from repro.exceptions import ConfigurationError


def dumps(document) -> str:
    return json.dumps(document, sort_keys=True)


def _run(compact: bool, **overrides) -> TrainingHistory:
    kwargs = dict(
        model="logistic",
        model_kwargs={"input_dim": 8, "num_classes": 3},
        dataset=gaussian_blobs(num_train=300, num_test=60, num_classes=3, dim=8, rng=2),
        gar="median",
        num_workers=9,
        num_byzantine=2,
        attack="sign-flip",
        codec="top-k",
        codec_k=6,
        batch_size=8,
        learning_rate=0.05,
        seed=17,
        compact_telemetry=compact,
    )
    kwargs.update(overrides)
    trainer = build_trainer(**kwargs)
    return trainer.run(TrainerConfig(max_steps=6, eval_every=3))


def test_compact_history_exports_identically():
    loop = _run(compact=False)
    compact = _run(compact=True)
    assert compact.compact and not loop.compact
    assert dumps(compact.to_dict()) == dumps(loop.to_dict())


def test_compact_history_exports_identically_with_lossy_links_and_wan():
    loop = _run(compact=False, lossy_links=3, lossy_drop_rate=0.3,
                link_profile="wan:3x10mbit/5ms", link_sharing="fair")
    compact = _run(compact=True, lossy_links=3, lossy_drop_rate=0.3,
                   link_profile="wan:3x10mbit/5ms", link_sharing="fair")
    assert dumps(compact.to_dict()) == dumps(loop.to_dict())


def test_compact_wire_summary_and_regions_match():
    loop = _run(compact=False, link_profile="wan:3x10mbit/5ms", link_sharing="fair")
    compact = _run(compact=True, link_profile="wan:3x10mbit/5ms", link_sharing="fair")
    assert dumps(compact.wire_summary()) == dumps(loop.wire_summary())
    assert dumps(compact.region_queueing_summary()) == dumps(
        loop.region_queueing_summary()
    )


def test_compact_merged_timelines_match_object_timelines():
    loop = _run(compact=False)
    compact = _run(compact=True)
    merged_loop = loop.merged_timelines()
    merged_compact = compact.merged_timelines()
    assert set(merged_loop) == set(merged_compact)
    for wid in merged_loop:
        assert dumps(merged_compact[wid].to_dict()) == dumps(merged_loop[wid].to_dict()), wid


def test_record_version_lag_batch_counts_in_first_occurrence_order():
    history = TrainingHistory()
    history.record_version_lag_batch([0, 0, 2, 0, 1, 2, 0, np.intp(3)])
    assert list(history.version_lag_counts.items()) == [(0, 4), (2, 2), (1, 1), (3, 1)]
    history.record_version_lag_batch([])  # empty round is a no-op
    assert list(history.version_lag_counts.items()) == [(0, 4), (2, 2), (1, 1), (3, 1)]
    # An int array (a round's staleness column) adds new lags after the
    # known ones, in the order they first occur: the exported key order.
    history.record_version_lag_batch(np.array([5, 1, 4, 5, 0], dtype=np.int64))
    assert list(history.version_lag_counts.items()) == [
        (0, 5), (2, 2), (1, 2), (3, 1), (5, 2), (4, 1)
    ]
    assert all(type(lag) is int for lag in history.version_lag_counts)


@pytest.mark.parametrize("size", [1, 4, 1000])
def test_record_wire_batch_equals_record_wire_per_worker(size):
    """One batch ``==`` its members one by one, in both stores, at every size.

    The ids include repeats, an id never registered and one past the row
    table (both registered on the way), and the fetches mix full and delta
    frames and zero-byte rows.
    """
    rng = np.random.default_rng(size)
    ids = rng.integers(0, 12, size=size).tolist()
    ids[-1] = 40 + size  # past every table
    sent, received, queued, error = (rng.random(size) * 100 for _ in range(4))
    received[rng.random(size) < 0.3] = 0.0
    delta = rng.random(size) < 0.5
    regions = [("east", "west", None)[i % 3] for i in range(size)]
    for compact in (True, False):
        batched, single = TrainingHistory(compact=compact), TrainingHistory(compact=compact)
        for history in (batched, single):
            history.register_workers(range(8))
        batched.record_wire_batch(
            ids, bytes_sent=sent, bytes_received=received, queueing_delay=queued,
            compression_error=error, downlink_delta=delta, regions=regions,
        )
        for i, wid in enumerate(ids):
            single.record_wire(
                wid, bytes_sent=float(sent[i]), bytes_received=float(received[i]),
                queueing_delay=float(queued[i]), compression_error=float(error[i]),
                downlink_delta=bool(delta[i]), region=regions[i],
            )
        assert dumps(batched.to_dict()) == dumps(single.to_dict())
        assert batched.region_queueing_seconds == single.region_queueing_seconds


def test_record_wire_batch_refuses_a_negative_id_in_compact_mode():
    history = TrainingHistory(compact=True)
    history.register_workers([0, 1])
    with pytest.raises(ConfigurationError, match="non-negative worker ids, got -1"):
        history.record_wire_batch([1, -1], bytes_sent=np.ones(2))
