"""Bitwise parity: the event loop's run handlers against the frozen per-event handlers.

:class:`~repro.cluster.events.EventLoop` pops *consecutive same-time
same-kind* runs of fetch/compute/push/arrive/link events and dispatches each
run — a run of one included — through its stage's one handler as one
``Cohort`` (batched codec encode, batched link pricing, the next stage
scheduled as one cohort per instant; for ``arrive`` one batch decode, each
stretch of plain arrivals written to the pool in one bulk write and the
per-arrival admission body for the rest, with the two triggers consulted
only where one can fire; for ``link`` one sweep of the run's pipes and one
push of their hand-offs and reschedules).  The reference never builds a
cohort: the per-event handlers frozen in ``tests/async_reference.py``
schedule one ``Event`` each, and ``as_per_event_reference`` re-classes a
built ``AsyncTrainer`` onto them so that every event is dispatched alone.
The contract is the same hard bit identity the sync path carries:
byte-identical final parameters, simulated clock and telemetry export, the
same number of dispatched events and the same pop sequence.

``peak_queue_size`` is deliberately *not* asserted: the run handlers
skip link-reschedule events that the per-event path pushes and then
tombstones before dispatch, so the heap's high-water mark (which counts
tombstones) may differ while the live pop order cannot.

The scenarios sweep every hot-path branch: all four codecs (with and
without error feedback), stragglers, link contention (also with a
persistent straggler), a WAN topology, runs of same-instant link
completions across the eight pipes of four identical regions (``fifo``
and ``fair``), delta broadcasts, lossy links,
compact telemetry, a bounded-staleness admission predicate, a herd whose
compute cohorts draw one straggler factor per worker (``prob < 1``), a herd
whose arrivals spread over several instants with lossy rows among them,
uplinks too fast to move the clock, and both adversary classes
(deterministic sign-flip → one batched craft per version;
RNG-drawing random attack → the per-worker fallback).  Four 64- and
16-worker scenarios put a trigger *inside* an ``arrive`` run — the
adversary's fire threshold and the quorum crossed mid-run, a wholly
stale-rejected run, dropped wires and supersedes mid-run —
and ``test_a_trigger_falls_inside_an_arrive_run`` checks that they still do.
``test_an_arrive_cohort_of_frames_equals_its_arrivals_one_by_one`` draws
the cohorts no deployment is known to produce and holds the bulk admission
``==`` to the per-event handler on them.  A ``fleet``-mode compute run of
two or more takes the fleet stream's shared draw, which no per-event
dispatch makes, so the pareto ``fleet`` scenario is held against
``as_runs_of_one_reference`` instead: runs of two or more through the live
handlers, each run of one through the frozen handler, whose compute draws
from its own worker's stream.

A second grid holds the event-driven *server stage* — the one
``BaseTrainer._aggregate`` spelling over ``ServerFabric.aggregate``, with the
gather folded into ``update-done`` — against the parent's
(``as_server_stage_reference``: per-engine ``_aggregate_pending`` and a
seventh ``gather`` event), which the grid above cannot see drift because both
of its arms run the live stage.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builder import build_trainer
from repro.cluster.codec import DeliveredFrames
from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.events import Cohort, Columns, Event
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import gaussian_blobs
from tests.async_reference import (
    RUN_KINDS, as_per_event_reference, as_runs_of_one_reference,
)
from tests.trainer_reference import as_server_stage_reference

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

#: Twelve honest workers on the benchmark's four-region WAN, three a region.
_LINK_RUNS = {
    "num_workers": 12, "num_byzantine": 0, "declared_f": 2, "link_profile": "wan:4x10mbit/20ms",
}

SCENARIOS = {
    "identity": {},
    "topk_ef": {"codec": "top-k", "codec_k": 8},
    "randomk": {"codec": "random-k", "codec_k": 8, "error_feedback": False},
    "qsgd_ef": {"codec": "qsgd", "quantize_bits": 4},
    "straggler": {"straggler_model": StragglerModel("pareto")},
    # Per-worker draws inside compute cohorts: with prob < 1 a batch draw
    # takes its factors and uniforms in another order than single draws.
    "straggler_herd_partial": {**_HERD, "straggler_model": StragglerModel("lognormal", prob=0.3)},
    # A push cohort's arrivals at several instants, lossy rows among them:
    # one arrive cohort per instant, each with its touched rows.
    "delayed_lossy_herd": {
        **_HERD, "link_delays": {worker_id: 1e-4 for worker_id in range(6, 64, 3)},
        "lossy_links": 8, "lossy_drop_rate": 0.3,
    },
    # Uplinks too fast to move the clock: each arrival shares the instant of
    # the fetches and pops between them, so a push run schedules per event.
    "zero_delay_uplink": {"cost_model": CostModel(latency_s=0.0, bandwidth_gbps=1e18)},
    "contended": {"link_sharing": "fair"},
    "straggler_contended": {
        "straggler_model": StragglerModel("pareto"),
        "worker_speeds": {2: 1e-6},
        "link_sharing": "fair",
    },
    "wan": {"link_profile": "wan:2x10mbit/5ms", "link_sharing": "fair"},
    # Four identical regions: their eight pipes hand transfers on at one
    # instant, and each such run is swept by the ``link`` run handler.
    **{f"{sharing}_link_runs": {**_LINK_RUNS, "link_sharing": sharing} for sharing in ("fifo", "fair")},
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


def _record_pops(trainer) -> list:
    """The ``(time, kind, worker_id)`` of every event *trainer*'s queue pops, in order."""
    popped = []
    pop_run = trainer._loop.queue.pop_run

    def recording(budget, kinds=None):
        run = pop_run(budget, kinds)
        members = [run] if isinstance(run, Event) else run
        popped.extend((e.time, e.kind, e.worker_id) for e in members)
        return run

    trainer._loop.queue.pop_run = recording
    return popped


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_async_vectorized_drain_is_bit_identical_to_the_per_event_loop(name):
    overrides = SCENARIOS[name]
    arms = []
    for reference in (None, as_per_event_reference):
        trainer = build_trainer(**{**_BASE, **overrides})
        if reference is not None:
            trainer = reference(trainer)
        popped = _record_pops(trainer)
        arms.append((trainer, trainer.run(TrainerConfig(max_steps=6, eval_every=0)), popped))
    (vec_trainer, vec_history, vec_popped), (loop_trainer, loop_history, loop_popped) = arms
    np.testing.assert_array_equal(
        vec_trainer.server.parameters, loop_trainer.server.parameters
    )
    assert vec_trainer.clock.now == loop_trainer.clock.now
    assert vec_history.to_dict() == loop_history.to_dict()
    # Every popped event is counted once, batched or not, and pops in the
    # per-event order: cohorts keep every same-instant pair's order.
    assert vec_trainer.events_dispatched == loop_trainer.events_dispatched
    assert vec_popped == loop_popped


#: A pareto-straggler fleet in ``fleet`` compute mode: the first round's
#: compute herd takes one shared draw, the stragglers' later rounds run alone.
FLEET_STRAGGLER = {"compute_mode": "fleet", "straggler_model": StragglerModel("pareto")}


def test_a_fleet_mode_run_of_one_draws_from_its_own_worker():
    """A compute run of one takes its worker's own draw, never the fleet stream's.

    Held ``==``, pop sequence included, to the dispatch rule the per-event
    twins served (``as_runs_of_one_reference``): a compute run of two or
    more through the live handler, each run of one through the frozen
    ``_on_compute``.  The scenario has both kinds of compute run.
    """
    arms = []
    for reference in (None, as_runs_of_one_reference):
        trainer = build_trainer(**{**_BASE, **FLEET_STRAGGLER})
        if reference is not None:
            trainer = reference(trainer)
        compute, lengths = trainer._loop._run_handlers["compute"], []

        def spy(cohort, compute=compute, lengths=lengths):
            lengths.append(len(cohort))
            compute(cohort)

        trainer._loop._run_handlers["compute"] = spy
        popped = _record_pops(trainer)
        arms.append((trainer, trainer.run(TrainerConfig(max_steps=6, eval_every=0)), popped))
        assert 1 in lengths and max(lengths) > 1, lengths
    (live, live_history, live_popped), (ref, ref_history, ref_popped) = arms
    np.testing.assert_array_equal(live.server.parameters, ref.server.parameters)
    assert live.clock.now == ref.clock.now
    assert live_history.to_dict() == ref_history.to_dict()
    assert live.events_dispatched == ref.events_dispatched
    assert live_popped == ref_popped


@pytest.mark.parametrize("name", sorted(ARRIVE_RUN_SCENARIOS))
def test_a_trigger_falls_inside_an_arrive_run(name):
    """The ``arrive_run_*`` scenarios exercise what they are in the grid for.

    Spies on the two ways a run's members are consumed — the per-arrival
    admission body and the pool's bulk write of a stretch of plain arrivals
    — and on the two triggers of one trainer record what happened at a
    position strictly inside a run (neither its first nor its last
    arrival): the adversary firing, an aggregation starting, an arrival
    refused or superseding.
    """
    overrides, expected = ARRIVE_RUN_SCENARIOS[name]
    trainer = build_trainer(**{**_BASE, **overrides})
    seen = set()
    position = [0, 0]  # members of the current run consumed, run length
    admit, put_many, fire, aggregate, on_run = (
        trainer._admit_arrival, trainer._pending.put_many, trainer._maybe_fire_byzantine,
        trainer._maybe_aggregate, trainer._on_arrive_batch,
    )

    def inside():
        return 1 < position[0] < position[1]

    def spy_admit(*arrival):
        position[0] += 1
        before = dict(trainer._interval)
        buffered = admit(*arrival)
        if inside():
            seen.update(k for k, v in trainer._interval.items() if v != before[k])
        return buffered

    def spy_put_many(worker_ids, **columns):
        position[0] += len(worker_ids)
        put_many(worker_ids, **columns)

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

    def spy_on_run(cohort):
        position[:] = [0, len(cohort)]
        on_run(cohort)
        position[:] = [0, 0]

    trainer._admit_arrival, trainer._maybe_fire_byzantine = spy_admit, spy_fire
    trainer._pending.put_many = spy_put_many
    trainer._maybe_aggregate = spy_aggregate
    trainer._loop._run_handlers["arrive"] = spy_on_run
    trainer.run(TrainerConfig(max_steps=6, eval_every=0))
    assert seen >= expected, seen


@pytest.mark.parametrize("sharing", ["fifo", "fair"])
def test_a_link_run_spans_pipes_of_both_directions(sharing):
    """The ``*_link_runs`` scenarios sweep same-instant completions of eight pipes.

    At least one run of ``link`` events covers four or more pipes of each
    direction, and each of those pipes hands a completed transfer on.
    """
    trainer = build_trainer(**{**_BASE, **SCENARIOS[f"{sharing}_link_runs"]})
    sweep, links, spans = trainer._loop._run_handlers["link"], trainer._links, []

    def spy(cohort):
        before = {key: links[key].sessions_completed for key in cohort.payloads}
        sweep(cohort)
        spans.append([key for key in cohort.payloads if links[key].sessions_completed > before[key]])

    trainer._loop._run_handlers["link"] = spy
    trainer.run(TrainerConfig(max_steps=6, eval_every=0))
    assert any(
        sum(key.startswith("down:") for key in keys) >= 4
        and sum(key.startswith("up:") for key in keys) >= 4
        for keys in spans
    ), spans


def _arrival(trainer, worker_id, step, *, wire="gradient", seed=0):
    """A hand-built ``arrive`` event at the trainer's current instant."""
    gradient = np.random.default_rng(seed).standard_normal(trainer.server.dim)
    return Event(
        time=trainer.clock.now, kind="arrive", worker_id=worker_id,
        payload=(step, float(seed), gradient if wire == "gradient" else None),
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
            trainer._on_arrive_batch(Cohort(
                trainer.clock.now, "arrive", [e.worker_id for e in events],
                [e.payload for e in events],
            ))
        else:
            as_per_event_reference(trainer)
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


def _comparable(value):
    """*value* with arrays as bytes and floats as hex, so ``==`` is bitwise and NaN-safe."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return tuple(_comparable(item) for item in value)
    if isinstance(value, dict):
        return tuple((key, _comparable(item)) for key, item in value.items())
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _comparable(
            [getattr(value, field.name) for field in dataclasses.fields(value)]
        )
    return value


def _admission_state(trainer) -> dict:
    """What an ``arrive`` handler can change, in comparable form; drains the queue."""
    pool = trainer._pending
    slots = list(pool._slot_of.values())
    return {
        "pool": list(pool._slot_of.items()),
        "free": list(pool._free),
        "honest_count": pool.honest_count,
        "columns": _comparable([
            getattr(pool, name)[slots] for name in (
                "_worker_ids", "_steps", "_arrival_times", "_staleness", "_wire_bytes",
                "_losses", "_honest", "_payloads",
            )
        ]),
        "checked_version": trainer._pending_checked_version,
        "interval": dict(trainer._interval),
        "timelines": _comparable(trainer.history.worker_timelines),
        "busy": trainer._busy,
        "fired_version": trainer._byz_fired_version,
        "queued": [
            (event.time, event.kind, event.worker_id, event.order, _comparable(event.payload))
            for event in trainer._loop.queue.drain()
        ],
    }


#: Ten workers, the adversary's two (ids 0 and 1) among them, a lag bound of
#: one version, and a top-k codec whose frames the cohort's wires are rows of.
_DIFFERENTIAL = {
    "num_workers": 10, "num_byzantine": 2, "declared_f": 2, "codec": "top-k", "codec_k": 4,
    "sync_policy": "bounded-staleness",
}
#: A cohort member's versions behind the server and what its channel did,
#: weighted towards plain arrivals so that stretches of them reach a trigger.
_LAG_AND_WIRE = st.tuples(
    st.sampled_from([0, 0, 0, 1, 1, 2, 3]),
    st.sampled_from(["frame", "frame", "frame", "frame", "dropped", "degraded"]),
)


@st.composite
def _cohorts(draw):
    """Every worker once, plus up to twelve repeats, in a drawn order."""
    herd = [(worker_id, *draw(_LAG_AND_WIRE)) for worker_id in range(10)]
    repeats = draw(st.lists(st.tuples(st.integers(0, 9), _LAG_AND_WIRE), max_size=12))
    return draw(st.permutations(herd + [(worker_id, *rest) for worker_id, rest in repeats]))


@settings(max_examples=80, deadline=None)
@given(
    quorum=st.integers(8, 10),
    buffered=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), max_size=6),
    moved=st.booleans(),
    members=_cohorts(),
)
def test_an_arrive_cohort_of_frames_equals_its_arrivals_one_by_one(
    quorum, buffered, moved, members
):
    """``_on_arrive_batch`` on a herd's cohort ``==`` ``_on_arrive`` per member.

    Generated from :func:`test_two_rounds_of_one_worker_in_one_arrive_run`'s
    setting, with the wires a :class:`DeliveredFrames` — the path that
    admits in columns: repeated workers, dropped and degraded wires, lags
    on both sides of the bound, older and fresher supersedes of buffered
    entries, Byzantine members, the fire and quorum thresholds crossed
    mid-cohort, and (*moved*) a version the pool was not yet rescanned
    against, with entries it holds from older versions.
    """
    states = []
    for batched in (True, False):
        trainer, _ = _run({**_DIFFERENTIAL, "sync_kwargs": {"quorum": quorum, "tau": 1}}, steps=3)
        version, now = trainer.server.version, trainer.clock.now
        byzantine = {worker.worker_id for worker in trainer.byzantine_workers}
        rng = np.random.default_rng(len(members))
        for worker_id, behind in buffered:
            # Entries past the bound are only reachable before a version move.
            behind = behind if moved else min(behind, 1)
            trainer._pending.put(
                worker_id, step=version - behind, payload=rng.standard_normal(trainer.server.dim),
                arrival_time=now, honest=worker_id not in byzantine, staleness=behind,
                wire_bytes=0.0 if worker_id in byzantine else 40.0, loss=0.5,
            )
        if moved:
            trainer._pending_checked_version = version - 1
        frames, _ = trainer.codec.encode_decode_batch(
            rng.standard_normal((len(members), trainer.server.dim))
        )
        touched = {
            i: None if wire == "dropped" else frames.frame(i).degraded(frames.values[i] / 2)
            for i, (_, _, wire) in enumerate(members) if wire != "frame"
        }
        wires = DeliveredFrames(frames, touched)
        ids = [worker_id for worker_id, _, _ in members]
        steps = [version - behind for _, behind, _ in members]
        losses = [float(i) for i in range(len(members))]
        if batched:
            trainer._on_arrive_batch(
                Cohort(now, "arrive", ids, Columns(steps, losses, wires))
            )
        else:
            as_per_event_reference(trainer)
            for i, worker_id in enumerate(ids):
                trainer._on_arrive(Event(
                    time=now, kind="arrive", worker_id=worker_id,
                    payload=(steps[i], losses[i], wires[i]),
                ))
        states.append(_admission_state(trainer))
    assert states[0] == states[1]


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
    assert set(trainer._loop._handlers) == {"update-done"}
    assert set(trainer._loop._run_handlers) == RUN_KINDS
