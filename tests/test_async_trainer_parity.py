"""Bitwise parity: the event loop's run handlers against the per-event handlers.

:class:`~repro.cluster.events.EventLoop` pops *consecutive same-time
same-kind* runs of fetch/compute/push events and dispatches each run of two
or more through one batched handler (batched codec encode/decode, batched
link pricing, one ``schedule_many`` re-insertion).  The contract is the same
hard bit identity the sync path carries: byte-identical final parameters,
simulated clock and telemetry export, and the same number of dispatched
events.  The reference is the same ``AsyncTrainer`` with its run handlers
unregistered (``tests/trainer_reference.as_per_event_reference``), so every
event reaches ``_on_fetch`` / ``_on_compute`` / ``_on_push``.

``peak_queue_size`` is deliberately *not* asserted: the batched handlers
skip link-reschedule events that the per-event path pushes and then
tombstones before dispatch, so the heap's high-water mark (which counts
tombstones) may differ while the live pop order cannot.

The scenarios sweep every hot-path branch: all four codecs (with and
without error feedback), stragglers, link contention (also with a
persistent straggler), a WAN topology, delta broadcasts, lossy links,
compact telemetry, a bounded-staleness admission predicate, and both
adversary classes (deterministic sign-flip → one batched craft per version;
RNG-drawing random attack → the per-worker fallback).

A second grid holds the event-driven *server stage* — the one
``BaseTrainer._aggregate`` spelling over ``ServerFabric.aggregate``, with the
gather folded into ``update-done`` — against the parent's
(``as_server_stage_reference``: per-engine ``_aggregate_pending`` and a
seventh ``gather`` event), which the grid above cannot see drift because both
of its arms run the live stage.
"""

import numpy as np
import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.cost_model import StragglerModel
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import gaussian_blobs
from tests.trainer_reference import as_per_event_reference, as_server_stage_reference

SCENARIOS = {
    "identity": {},
    "topk_ef": {"codec": "top-k", "codec_k": 8},
    "randomk": {"codec": "random-k", "codec_k": 8, "error_feedback": False},
    "qsgd_ef": {"codec": "qsgd", "quantize_bits": 4},
    "straggler": {"straggler_model": StragglerModel("pareto")},
    "contended": {"link_sharing": "fair"},
    "straggler_contended": {
        "straggler_model": StragglerModel("pareto"),
        "worker_speeds": {2: 1e-6},
        "link_sharing": "fair",
    },
    "wan": {"link_profile": "wan:2x10mbit/5ms", "link_sharing": "fair"},
    "broadcast_delta": {"broadcast_codec": "top-k", "broadcast_k": 8},
    "lossy": {"lossy_links": 3, "lossy_drop_rate": 0.3},
    "compact_telemetry": {"compact_telemetry": True},
    "bounded_staleness": {"sync_policy": "bounded-staleness", "max_version_lag": 2},
    "random_attack": {"attack": "random"},
    "no_attack": {"num_byzantine": 0, "declared_f": 2},
}


def _run(overrides: dict, *, reference=None, steps: int = 6):
    kwargs = dict(
        model="logistic",
        model_kwargs={"input_dim": 10, "num_classes": 5},
        dataset=gaussian_blobs(num_train=2000, num_classes=5, dim=10, rng=3),
        gar="median",
        mode="async",
        sync_policy="quorum",
        num_workers=8,
        num_byzantine=2,
        attack="sign-flip",
        batch_size=16,
        learning_rate=0.05,
        seed=11,
    )
    kwargs.update(overrides)
    trainer = build_trainer(**kwargs)
    if reference is not None:
        trainer = reference(trainer)
    history = trainer.run(TrainerConfig(max_steps=steps, eval_every=0))
    return trainer, history


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_async_vectorized_drain_is_bit_identical_to_the_per_event_loop(name):
    overrides = SCENARIOS[name]
    vec_trainer, vec_history = _run(overrides)
    loop_trainer, loop_history = _run(overrides, reference=as_per_event_reference)
    np.testing.assert_array_equal(
        vec_trainer.server.parameters, loop_trainer.server.parameters
    )
    assert vec_trainer.clock.now == loop_trainer.clock.now
    assert vec_history.to_dict() == loop_history.to_dict()
    # Every popped event is counted once, batched or not.
    assert vec_trainer.events_dispatched == loop_trainer.events_dispatched


def test_async_vectorized_parity_with_selection_gar():
    overrides = {
        "gar": "multi-krum",
        "declared_f": 2,
        "num_workers": 10,
        "codec": "top-k",
        "codec_k": 8,
    }
    vec_trainer, vec_history = _run(overrides)
    loop_trainer, loop_history = _run(overrides, reference=as_per_event_reference)
    np.testing.assert_array_equal(
        vec_trainer.server.parameters, loop_trainer.server.parameters
    )
    assert [s.selected_workers for s in vec_history.steps] == [
        s.selected_workers for s in loop_history.steps
    ]
    assert [s.selection_scores for s in vec_history.steps] == [
        s.selection_scores for s in loop_history.steps
    ]


def test_async_vectorized_livelock_guard_still_fires():
    # The batched drain must keep run_until's livelock semantics: a fully
    # lossy transport drops every gradient forever.
    from repro.cluster import LossyChannel

    channels = {
        worker_id: LossyChannel(drop_rate=1.0, policy="drop-gradient", rng=worker_id)
        for worker_id in range(8)
    }
    trainer = build_trainer(
        model="logistic",
        model_kwargs={"input_dim": 10, "num_classes": 5},
        dataset=gaussian_blobs(num_train=500, num_classes=5, dim=10, rng=3),
        gar="median",
        mode="async",
        sync_policy="quorum",
        num_workers=8,
        batch_size=16,
        seed=11,
        uplink_channels=channels,
    )
    trainer.max_events_per_update = 500
    history = trainer.run(TrainerConfig(max_steps=2, eval_every=0))
    assert history.diverged
    assert "livelock" in history.divergence_reason


#: Distance cache rows need a selection GAR for the cache to be queried.
_CACHED = {"gar": "multi-krum", "declared_f": 2, "distance_cache": True}
_WAN = {"link_profile": "wan:2x10mbit/5ms"}
SERVER_STAGE_SCENARIOS = {
    "single": {"server_topology": "single"},
    "single_cache": {"server_topology": "single", **_CACHED},
    "shards2": {"server_topology": "shards:2"},
    "shards3_cache": {"server_topology": "shards:3", **_CACHED},
    "region_sharded_wan_fair_cache": {
        "server_topology": "region-sharded", "link_sharing": "fair", **_WAN, **_CACHED,
    },
    "replicas3_wan_fifo_bounded_staleness": {
        "server_topology": "replicas:3", "link_sharing": "fifo", **_WAN,
        "sync_policy": "bounded-staleness", "max_version_lag": 2,
    },
    "shards2_slow_worker_topk": {
        "server_topology": "shards:2", "worker_speeds": {5: 0.05},
        "codec": "top-k", "codec_k": 8,
    },
    "shards2_cores4_cache": {"server_topology": "shards:2", "server_cores": 4, **_CACHED},
}


@pytest.mark.parametrize("name", sorted(SERVER_STAGE_SCENARIOS))
def test_async_server_stage_is_bit_identical_to_the_parent_stage(name):
    """One server stage, one event fewer per multi-actor update, no float moved.

    The cache x multi-actor rows are the only place the two engines' float
    associations differ (``(analytic + excess) + gather`` here).
    """
    overrides = {"num_workers": 12, **SERVER_STAGE_SCENARIOS[name]}
    steps = 15
    trainer, history = _run(overrides, steps=steps)
    ref_trainer, ref_history = _run(
        overrides, reference=as_server_stage_reference, steps=steps
    )
    assert len(history.steps) == steps
    np.testing.assert_array_equal(
        trainer.server.parameters, ref_trainer.server.parameters
    )
    assert trainer.clock.now == ref_trainer.clock.now
    assert history.to_dict() == ref_history.to_dict()
    # The gather no longer costs an event: exactly one fewer per update when
    # there is an inter-server wire, none when there is one actor.
    saved = steps * (trainer.service.num_actors > 1)
    assert trainer.events_dispatched == ref_trainer.events_dispatched - saved
    assert len(trainer._loop._handlers) == 6
