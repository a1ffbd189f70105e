"""The column-built export against the frozen object-merge export, in bytes.

``TrainingHistory.to_dict()`` builds its per-worker timelines and wire
totals once from :meth:`TrainingHistory._timeline_columns`;
``tests/telemetry_reference.py`` is the attribute-by-attribute merge it
replaced.  Every case compares ``json.dumps(..., sort_keys=True)`` strings,
not dicts: dict ``==`` passes ``1 == 1.0`` and ``-0.0 == 0.0``, JSON does not.
"""

import json

import pytest

import tests.telemetry_reference as reference
from repro.cluster.builder import build_trainer
from repro.cluster.telemetry import TrainingHistory, WorkerTimeline
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import gaussian_blobs

WAN = {"link_profile": "wan:3x10mbit/5ms", "link_sharing": "fair"}

#: Deployments, each run on the compact and the object store.
CASES = {
    "sync": {},
    "sync_lossy_links": {"lossy_links": 3, "lossy_drop_rate": 0.3},
    "sync_fair_wan": WAN,
    "sync_region_sharded": {**WAN, "server_topology": "region-sharded"},
    "sync_broadcast_codec": {"broadcast_codec": "top-k", "broadcast_k": 4},
    "async": {"mode": "async", "sync_policy": "quorum"},
    "async_lossy_links": {
        "mode": "async", "sync_policy": "quorum", "lossy_links": 3, "lossy_drop_rate": 0.3,
        "lossy_policy": "drop-gradient",
    },
    "async_fair_wan": {"mode": "async", "sync_policy": "quorum", **WAN},
    "async_broadcast_codec": {
        "mode": "async", "sync_policy": "quorum", "broadcast_codec": "top-k", "broadcast_k": 4,
    },
}


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
    return build_trainer(**kwargs).run(TrainerConfig(max_steps=6, eval_every=3))


@pytest.mark.parametrize("compact", [True, False], ids=["compact", "objects"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_export_is_bytes_equal_to_the_object_merge(case, compact):
    history = _run(compact, **CASES[case])
    assert dumps(history.to_dict()) == dumps(reference.to_dict(history))
    assert dumps(history.wire_summary()) == dumps(reference.wire_summary(history))
    merged = {wid: t.to_dict() for wid, t in history.merged_timelines().items()}
    frozen = {wid: t.to_dict() for wid, t in reference.merged_timelines(history).items()}
    assert dumps(merged) == dumps(frozen)


def test_hand_written_corners_export_like_the_object_merge():
    """Signed zeros, ints, ids without a wire row and untouched rows."""
    history = TrainingHistory(compact=True)
    history.register_workers([4, 2, 7])
    history.record_wire(4, bytes_sent=3.0, queueing_delay=-0.0, compression_error=0.1)
    history.record_wire(2, bytes_received=5.0, downlink_delta=True)
    history.timeline_for(2).compute_seconds = -0.0
    history.timeline_for(2).rounds_completed = 3
    # Registered but never touched: exported only through its object.
    history.timeline_for(7).transfer_seconds = 0.25
    # No wire row at all: the object's own counters, untouched by any add.
    history.worker_timelines[11] = WorkerTimeline(worker_id=11, queueing_delay_seconds=-0.0)
    assert dumps(history.to_dict()) == dumps(reference.to_dict(history))
    assert list(history.to_dict()["worker_timelines"]) == ["2", "4", "7", "11"]

    # The object store sums in insertion order: 1 + 1e16 - 1e16 is 0.0
    # there, while ascending ids would give 1e16 - 1e16 + 1 = 1.0.
    objects = TrainingHistory()
    for wid, error in ((5, 1.0), (1, 1e16), (3, -1e16)):
        objects.record_wire(wid, compression_error=error)
    assert objects.to_dict()["wire"]["compression_error"] == 0.0
    assert dumps(objects.to_dict()) == dumps(reference.to_dict(objects))


def test_empty_history_exports_like_the_object_merge():
    for compact in (True, False):
        history = TrainingHistory(compact=compact)
        assert dumps(history.to_dict()) == dumps(reference.to_dict(history))
