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


def test_record_version_lag_batch_matches_singles():
    single = TrainingHistory()
    batched = TrainingHistory()
    lags = [0, 0, 2, 0, 1, 2, 0, np.intp(3)]
    for lag in lags:
        single.record_version_lag(lag)
    batched.record_version_lag_batch(lags)
    assert batched.version_lag_counts == single.version_lag_counts
    batched.record_version_lag_batch([])  # empty round is a no-op
    assert batched.version_lag_counts == single.version_lag_counts
