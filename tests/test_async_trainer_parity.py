"""Bitwise parity: the event loop's run handlers against the per-event handlers.

:class:`~repro.cluster.events.EventLoop` pops *consecutive same-time
same-kind* runs of fetch/compute/push/arrive events and dispatches each run
of two or more through one run handler (batched codec encode/decode, batched
link pricing, one ``schedule_many`` re-insertion; for ``arrive`` the
per-event admission body with the two triggers consulted only where one can
fire).  The contract is the same
hard bit identity the sync path carries: byte-identical final parameters,
simulated clock and telemetry export, and the same number of dispatched
events.  The reference is the same ``AsyncTrainer`` with its run handlers
unregistered (``tests/trainer_reference.as_per_event_reference``), so every
event reaches ``_on_fetch`` / ``_on_compute`` / ``_on_push`` / ``_on_arrive``.

``peak_queue_size`` is deliberately *not* asserted: the batched handlers
skip link-reschedule events that the per-event path pushes and then
tombstones before dispatch, so the heap's high-water mark (which counts
tombstones) may differ while the live pop order cannot.

The scenarios sweep every hot-path branch: all four codecs (with and
without error feedback), stragglers, link contention (also with a
persistent straggler), a WAN topology, delta broadcasts, lossy links,
compact telemetry, a bounded-staleness admission predicate, and both
adversary classes (deterministic sign-flip → one batched craft per version;
RNG-drawing random attack → the per-worker fallback).  Four 64- and
16-worker scenarios put a trigger *inside* an ``arrive`` run — the
adversary's fire threshold and the quorum crossed mid-run, a wholly
stale-rejected run, dropped wires and supersedes mid-run —
and ``test_a_trigger_falls_inside_an_arrive_run`` checks that they still do.

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
from repro.cluster.events import Event
from repro.cluster.message import GradientMessage
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import gaussian_blobs
from tests.trainer_reference import as_per_event_reference, as_server_stage_reference

#: 64 homogeneous workers, 6 of them the adversary: every honest round
#: arrives as one 58-event run at one instant, the adversary's six same-instant
#: arrivals as the run behind it.
_HERD = {"num_workers": 64, "num_byzantine": 6, "declared_f": 6}
#: Deployments where a trigger fires, or an arrival is refused, strictly
#: inside an ``arrive`` run: ``(overrides, what must be seen inside one)``.
ARRIVE_RUN_SCENARIOS = {
    "byzantine_fire_and_quorum": (_HERD, {"fired", "aggregated"}),
    "bounded_staleness": (
        {**_HERD, "sync_policy": "bounded-staleness", "max_version_lag": 1},
        {"fired", "aggregated", "stale_rejected"},
    ),
    "dropped_wires": (
        {**_HERD, "lossy_links": 8, "lossy_drop_rate": 0.5, "lossy_policy": "drop-gradient"},
        {"fired", "aggregated", "channel_dropped"},
    ),
    # Half the fleet four orders of magnitude slower: the fast half's next
    # rounds supersede its buffered ones, run after run, until the quorum fills.
    "superseded": (
        {
            "num_workers": 16, "num_byzantine": 0, "declared_f": 2,
            "worker_speeds": {worker_id: 1e-4 for worker_id in range(8, 16)},
        },
        {"aggregated", "superseded"},
    ),
}

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
    **{f"arrive_run_{name}": row[0] for name, row in ARRIVE_RUN_SCENARIOS.items()},
}


_BASE = dict(
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


def _run(overrides: dict, *, reference=None, steps: int = 6):
    trainer = build_trainer(**{**_BASE, **overrides})
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


@pytest.mark.parametrize("name", sorted(ARRIVE_RUN_SCENARIOS))
def test_a_trigger_falls_inside_an_arrive_run(name):
    """The ``arrive_run_*`` scenarios exercise what they are in the grid for.

    Spies on the admission body and the two triggers of one trainer record
    what happened at a position strictly inside a run (neither its first nor
    its last arrival): the adversary firing, an aggregation starting, an
    arrival refused or superseding.
    """
    overrides, expected = ARRIVE_RUN_SCENARIOS[name]
    trainer = build_trainer(**{**_BASE, **overrides})
    seen = set()
    position = [0, 0]  # arrival index in the current run, run length
    admit, fire, aggregate, on_run = (
        trainer._admit_arrival, trainer._maybe_fire_byzantine,
        trainer._maybe_aggregate, trainer._on_arrive_batch,
    )

    def inside():
        return 1 < position[0] < position[1]

    def spy_admit(event):
        position[0] += 1
        before = dict(trainer._interval)
        buffered = admit(event)
        if inside():
            seen.update(k for k, v in trainer._interval.items() if v != before[k])
        return buffered

    def spy_fire(now):
        before = trainer._byz_fired_version
        room = fire(now)
        if inside() and trainer._byz_fired_version != before:
            seen.add("fired")
        return room

    def spy_aggregate(now):
        before = trainer._busy
        room = aggregate(now)
        if inside() and trainer._busy and not before:
            seen.add("aggregated")
        return room

    def spy_on_run(events):
        position[:] = [0, len(events)]
        on_run(events)
        position[:] = [0, 0]

    trainer._admit_arrival, trainer._maybe_fire_byzantine = spy_admit, spy_fire
    trainer._maybe_aggregate = spy_aggregate
    trainer._loop._run_handlers["arrive"] = spy_on_run
    trainer.run(TrainerConfig(max_steps=6, eval_every=0))
    assert seen >= expected, seen


def _arrival(trainer, worker_id, step, *, wire="gradient", seed=0):
    """A hand-built ``arrive`` event at the trainer's current instant."""
    gradient = np.random.default_rng(seed).standard_normal(trainer.server.dim)
    message = GradientMessage(worker_id, step, gradient, loss=float(seed))
    return Event(
        time=trainer.clock.now, kind="arrive", worker_id=worker_id,
        payload=(message, gradient if wire == "gradient" else None),
    )


def test_two_rounds_of_one_worker_in_one_arrive_run():
    """Supersede *inside* a run, which no deployment produces: hand-built runs.

    A worker's rounds are a round trip apart, so two of them never share an
    instant; ``_on_arrive_batch`` must still equal sequential ``_on_arrive``
    when they do.  The run crosses the quorum midway, holds a fresher
    gradient followed by an older one of the same worker (counted, not
    evicting) and the reverse (replacing), and a dropped wire.
    """
    # A quorum of all eight: every update drains the pool and leaves the server free.
    overrides = {"num_byzantine": 0, "declared_f": 2, "sync_kwargs": {"quorum": 8}}
    specs = [  # (worker, steps behind the current version, wire)
        (3, 0, "gradient"), (4, 1, "gradient"), (3, 1, "gradient"), (5, 0, None),
        (4, 0, "gradient"), (6, 0, "gradient"), (7, 0, "gradient"), (3, 0, "gradient"),
        (0, 0, "gradient"), (1, 1, "gradient"), (5, 0, "gradient"), (2, 0, "gradient"),
        (1, 0, "gradient"),
    ]
    trainers = []
    for batched in (True, False):
        trainer, _ = _run(overrides, steps=3)
        assert not trainer._busy and len(trainer._pending) == 0
        events = [
            _arrival(trainer, worker_id, trainer.server.version - behind, wire=wire, seed=i)
            for i, (worker_id, behind, wire) in enumerate(specs)
        ]
        if batched:
            trainer._on_arrive_batch(events)
        else:
            for event in events:
                trainer._on_arrive(event)
        trainers.append(trainer)
    batched, sequential = trainers
    assert batched._busy and sequential._busy  # the quorum was crossed mid-run
    assert batched._interval == sequential._interval
    assert batched._interval["superseded"] == 3 and batched._interval["channel_dropped"] == 1
    assert len(batched._pending) == 1  # worker 1's fresher round, buffered while busy
    assert batched._pending.step_of(1) == sequential._pending.step_of(1)
    np.testing.assert_array_equal(
        batched._pending.payload_matrix(), sequential._pending.payload_matrix()
    )
    histories = [t.run(TrainerConfig(max_steps=6, eval_every=0)) for t in trainers]
    np.testing.assert_array_equal(batched.server.parameters, sequential.server.parameters)
    assert batched.clock.now == sequential.clock.now
    assert histories[0].to_dict() == histories[1].to_dict()
    assert batched.events_dispatched == sequential.events_dispatched


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
