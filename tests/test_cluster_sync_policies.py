"""Property and parity tests for the pluggable synchrony layer.

The seed-parity oracle below is a frozen copy of the pre-pipeline
``SynchronousTrainer.run_step`` (the seed revision of ``trainer.py``); the
refactored pipeline with the default ``FullSync`` policy must reproduce its
trajectories — losses, parameter vectors, telemetry step records — bit for
bit, attack and lossy-transport scenarios included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    BoundedStaleness,
    CostModel,
    FullSync,
    Quorum,
    StragglerModel,
    TrainerConfig,
    build_trainer,
    make_sync_policy,
)
from repro.cluster.message import GradientMessage
from repro.cluster.sync import ArrivalEvent, available_sync_policies
from repro.exceptions import ConfigurationError, TrainingError
from tests.channel_testing import transfer


COMMON = dict(
    model="mlp",
    num_workers=9,
    batch_size=16,
    learning_rate=5e-3,
    seed=0,
)


def make_trainer(tiny_dataset, tiny_model_kwargs, **overrides):
    kwargs = dict(COMMON)
    kwargs.update(model_kwargs=tiny_model_kwargs, dataset=tiny_dataset)
    kwargs.update(overrides)
    return build_trainer(**kwargs)


# ------------------------------------------------------------ seed oracle
def reference_seed_step(trainer):
    """Frozen copy of the seed trainer's lock-step run_step (pre-pipeline)."""
    parameters = trainer.server.parameters
    step = trainer.server.step
    dim = trainer.server.dim

    honest_messages = []
    path_times = []
    downlink_time = trainer.cost_model.transfer_time(trainer.cost_model.gradient_bytes(dim))
    for worker in trainer.honest_workers:
        message = worker.compute_gradient(parameters, step)
        honest_messages.append(message)
        compute_time = trainer.cost_model.gradient_compute_time(
            dim,
            worker.batch_size,
            gflops=trainer._worker_gflops[worker.worker_id],
            flops_per_sample=worker.model.flops_per_sample(),
        )
        path_times.append(downlink_time + compute_time)

    honest_matrix = (
        np.stack([m.gradient for m in honest_messages], axis=0)
        if honest_messages
        else np.zeros((0, dim))
    )

    byzantine_messages = []
    num_byz = len(trainer.byzantine_workers)
    for index, worker in enumerate(trainer.byzantine_workers):
        byzantine_messages.append(
            worker.craft_gradient(
                parameters, honest_matrix, step, num_byzantine=num_byz, index=index
            )
        )

    delivered = []
    for path_index, message in enumerate(honest_messages + byzantine_messages):
        channel = trainer.uplink_channels[message.worker_id]
        payload, seconds = transfer(channel, message.gradient, trainer.cost_model)
        if path_index < len(honest_messages):
            path_times[path_index] += seconds
        if payload is None:
            continue
        delivered.append(
            GradientMessage(
                worker_id=message.worker_id,
                step=message.step,
                gradient=payload,
                loss=message.loss,
            )
        )

    if not delivered:
        raise TrainingError("every gradient was dropped this step; cannot make progress")

    for message in delivered:
        trainer.server.validate_submission(message)
    matrix = np.stack([m.gradient for m in delivered], axis=0)
    aggregated, aggregation_time = trainer.cost_model.aggregation_time(
        trainer.server.gar, matrix
    )
    trainer.server.apply_update(aggregated)
    update_time = trainer.cost_model.update_time(dim)

    compute_comm_time = max(path_times) if path_times else downlink_time
    trainer.clock.advance(compute_comm_time + aggregation_time + update_time)

    losses = [m.loss for m in honest_messages if np.isfinite(m.loss)]
    return {
        "step": step,
        "sim_time": trainer.clock.now,
        "mean_loss": float(np.mean(losses)) if losses else float("nan"),
        "compute_comm_time": compute_comm_time,
        "aggregation_time": aggregation_time,
        "update_time": update_time,
        "gradients_received": len(delivered),
        "parameters": trainer.server.parameters,
    }


SEED_PARITY_SCENARIOS = {
    "clean": dict(gar="average"),
    "robust": dict(gar="multi-krum", declared_f=2),
    "attacked": dict(
        gar="multi-krum", num_byzantine=2, declared_f=2, attack="reversed-gradient"
    ),
    "lossy": dict(
        gar="average", lossy_links=3, lossy_drop_rate=0.3,
        lossy_policy="drop-gradient",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SEED_PARITY_SCENARIOS))
def test_full_sync_reproduces_seed_trajectories_exactly(
    tiny_dataset, tiny_model_kwargs, scenario
):
    overrides = SEED_PARITY_SCENARIOS[scenario]
    pipeline = make_trainer(tiny_dataset, tiny_model_kwargs, **overrides)
    reference = make_trainer(tiny_dataset, tiny_model_kwargs, **overrides)
    assert isinstance(pipeline.sync_policy, FullSync)

    for _ in range(8):
        record = pipeline.run_step()
        expected = reference_seed_step(reference)
        assert record.step == expected["step"]
        assert record.sim_time == expected["sim_time"]
        assert record.compute_comm_time == expected["compute_comm_time"]
        assert record.aggregation_time == expected["aggregation_time"]
        assert record.update_time == expected["update_time"]
        assert record.gradients_received == expected["gradients_received"]
        if np.isnan(expected["mean_loss"]):
            assert np.isnan(record.mean_loss)
        else:
            assert record.mean_loss == expected["mean_loss"]
        # The pipeline's extra telemetry stays at the synchronous defaults.
        assert record.dropped_stragglers == 0
        assert record.carried_gradients == 0
        assert record.stale_gradients == 0
        np.testing.assert_array_equal(
            pipeline.server.parameters, expected["parameters"]
        )


@pytest.mark.parametrize("scenario", ["clean", "attacked", "lossy"])
def test_quorum_n_equals_full_sync(tiny_dataset, tiny_model_kwargs, scenario):
    overrides = SEED_PARITY_SCENARIOS[scenario]
    full = make_trainer(tiny_dataset, tiny_model_kwargs, **overrides)
    quorum = make_trainer(
        tiny_dataset, tiny_model_kwargs,
        sync_policy="quorum", sync_kwargs={"quorum": COMMON["num_workers"]},
        **overrides,
    )
    h_full = full.run(TrainerConfig(max_steps=6, eval_every=3))
    h_quorum = quorum.run(TrainerConfig(max_steps=6, eval_every=3))

    assert len(h_full.steps) == len(h_quorum.steps)
    for a, b in zip(h_full.steps, h_quorum.steps):
        assert a.sim_time == b.sim_time
        assert a.gradients_received == b.gradients_received
        if np.isnan(a.mean_loss):
            assert np.isnan(b.mean_loss)
        else:
            assert a.mean_loss == b.mean_loss
    np.testing.assert_array_equal(full.server.parameters, quorum.server.parameters)


# ------------------------------------------------------- quorum properties
def make_events(arrival_times, *, dropped=(), step=0, dim=3):
    events = []
    for order, arrival in enumerate(arrival_times):
        gradient = np.full(dim, float(order))
        events.append(
            ArrivalEvent(
                message=GradientMessage(
                    worker_id=order, step=step, gradient=gradient, loss=0.0
                ),
                payload=None if order in dropped else gradient,
                arrival_time=float(arrival),
                honest=True,
                order=order,
            )
        )
    return events


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 24),
    f_fraction=st.floats(0.0, 0.45),
    seed=st.integers(0, 2**31),
)
def test_quorum_never_admits_fewer_than_n_minus_f(n, f_fraction, seed):
    f = int(n * f_fraction)
    rng = np.random.default_rng(seed)
    policy = Quorum()
    policy.bind(num_workers=n, f=f)
    assert policy.effective_quorum >= n - f

    for step in range(5):
        events = make_events(rng.exponential(1.0, size=n), step=step)
        decision = policy.collect(events, step, floor=1e-4)
        assert len(decision.admitted) >= n - f
        # Every admitted gradient had arrived by the time the server stopped waiting.
        assert all(e.arrival_time <= decision.wait_time for e in decision.admitted)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 16), seed=st.integers(0, 2**31), q_extra=st.integers(0, 3))
def test_quorum_wait_is_order_statistic_of_arrivals(n, seed, q_extra):
    rng = np.random.default_rng(seed)
    f = rng.integers(0, max(n // 3, 1))
    q = min(n - f + q_extra, n)
    policy = Quorum(quorum=int(q))
    policy.bind(num_workers=n, f=int(f))
    arrivals = rng.exponential(1.0, size=n)
    decision = policy.collect(make_events(arrivals), 0, floor=1e-4)
    assert decision.wait_time == pytest.approx(np.sort(arrivals)[q - 1])
    assert len(decision.admitted) == q
    assert decision.dropped_stragglers == n - q


def test_quorum_below_resilience_floor_rejected():
    policy = Quorum(quorum=5)
    with pytest.raises(ConfigurationError, match="fewer than n - f"):
        policy.bind(num_workers=9, f=2)


def test_quorum_above_cluster_size_rejected():
    policy = Quorum(quorum=10)
    with pytest.raises(ConfigurationError, match="exceeds the cluster size"):
        policy.bind(num_workers=9, f=0)


def test_quorum_below_the_rules_minimum_batch_rejected_at_bind():
    # Bulyan f=4 needs 4f + 3 = 19 rows; the default quorum n - f is 15.
    with pytest.raises(ConfigurationError, match=r"quorum=15 .* 19 gradients .* f=4"):
        Quorum().bind(num_workers=19, f=4, min_batch=19)
    policy = Quorum(quorum=19)
    policy.bind(num_workers=19, f=4, min_batch=19)
    assert policy.effective_quorum == 19


@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize(
    "gar, n, f, minimum", [("bulyan", 19, 4, 19), ("multi-krum", 11, 4, 11)]
)
def test_quorum_too_small_for_the_gar_fails_at_build_not_on_step_zero(
    tiny_dataset, tiny_model_kwargs, mode, gar, n, f, minimum
):
    """The paper's own n=19, f=4 Bulyan deployment under the default quorum.

    The server aggregates exactly the quorum's rows, so ``q = n - f`` below
    the rule's own minimum used to build and then die on step 0 with a
    ``ResilienceConditionError`` that ``trainer.run`` does not catch.
    """
    config = dict(gar=gar, num_workers=n, declared_f=f, mode=mode, sync_policy="quorum")
    with pytest.raises(
        ConfigurationError, match=rf"quorum={n - f} .* {minimum} gradients .* f={f}"
    ):
        make_trainer(tiny_dataset, tiny_model_kwargs, **config)
    # A quorum the rule accepts builds and runs.
    trainer = make_trainer(
        tiny_dataset, tiny_model_kwargs, sync_kwargs={"quorum": minimum}, **config
    )
    history = trainer.run(TrainerConfig(max_steps=2, eval_every=0))
    assert len(history.steps) == 2 and not history.diverged


def test_lockstep_bounded_staleness_is_not_held_to_the_quorum_bound(
    tiny_dataset, tiny_model_kwargs
):
    """Its batch is every arrival up to the cutoff, not the first ``q``.

    A homogeneous fleet ties at the ``q``-th arrival, so all 19 gradients are
    admitted and Bulyan f=4 runs under the default quorum of 15; only the
    event-driven engine, which aggregates the moment ``q`` are buffered,
    refuses the same policy at build.
    """
    config = dict(
        gar="bulyan", num_workers=19, declared_f=4, sync_policy="bounded-staleness"
    )
    BoundedStaleness().bind(num_workers=19, f=4, min_batch=19)
    trainer = make_trainer(tiny_dataset, tiny_model_kwargs, **config)
    history = trainer.run(TrainerConfig(max_steps=2, eval_every=0))
    assert [s.gradients_received for s in history.steps] == [19, 19]
    with pytest.raises(ConfigurationError, match=r"quorum=15 .* 19 gradients .* f=4"):
        make_trainer(tiny_dataset, tiny_model_kwargs, mode="async", **config)


def test_quorum_requires_bind_before_collect():
    with pytest.raises(ConfigurationError, match="before bind"):
        Quorum().collect(make_events([0.1]), 0, floor=1e-4)


def test_quorum_carry_keeps_one_pending_slot_per_worker():
    policy = Quorum(quorum=2, stragglers="carry")
    policy.bind(num_workers=3, f=1)
    # Worker 2 is late twice in a row; its older gradient must be superseded.
    first = policy.collect(make_events([0.1, 0.2, 5.0], step=0), 0, floor=1e-4)
    assert first.carried == 1 and first.dropped_stragglers == 0
    second = policy.collect(make_events([0.1, 0.2, 5.0], step=1), 1, floor=1e-4)
    assert second.carried == 1
    assert second.dropped_stragglers == 1  # the superseded step-0 gradient
    assert len(policy._pending) == 1
    assert policy._pending[0].message.step == 1


def test_quorum_carried_gradients_keep_residual_lateness():
    policy = Quorum(quorum=2, stragglers="carry")
    policy.bind(num_workers=3, f=1)
    decision = policy.collect(make_events([0.1, 0.2, 5.0], step=0), 0, floor=1e-4)
    assert decision.wait_time == pytest.approx(0.2)
    # The straggler arrived 4.8 s after the cutoff; it is not available at
    # the very start of the next step.
    assert policy._pending[0].arrival_time == pytest.approx(4.8)


def test_quorum_falls_back_to_full_wait_when_quorum_unreachable():
    policy = Quorum(quorum=3)
    policy.bind(num_workers=4, f=1)
    events = make_events([0.1, 0.2, 0.3, 0.4], dropped={1, 2})
    decision = policy.collect(events, 0, floor=1e-4)
    assert len(decision.admitted) == 2
    assert decision.wait_time == pytest.approx(0.4)


# ------------------------------------------- bounded staleness properties
@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 14), tau=st.integers(0, 3), seed=st.integers(0, 2**31))
def test_bounded_staleness_never_exceeds_tau(n, tau, seed):
    rng = np.random.default_rng(seed)
    f = int(rng.integers(0, max(n // 3, 1)))
    policy = BoundedStaleness(tau=tau)
    policy.bind(num_workers=n, f=f)
    for step in range(12):
        events = make_events(rng.exponential(1.0, size=n) ** 2, step=step)
        decision = policy.collect(events, step, floor=1e-4)
        assert decision.max_staleness <= tau
        assert all(e.staleness <= tau for e in decision.admitted)
        # Nothing pending may already be older than the bound allows.
        assert all(step + 1 - e.message.step <= tau for e in policy._pending)


def test_bounded_staleness_tau_zero_admits_every_delivered_gradient():
    policy = BoundedStaleness(tau=0)
    policy.bind(num_workers=4, f=1)
    arrivals = [0.3, 0.1, 7.0, 0.2]
    decision = policy.collect(make_events(arrivals), 0, floor=1e-4)
    assert len(decision.admitted) == 4
    assert decision.carried == 0
    assert decision.wait_time == pytest.approx(7.0)


def test_bounded_staleness_invalid_parameters():
    with pytest.raises(ConfigurationError):
        BoundedStaleness(tau=-1)
    with pytest.raises(ConfigurationError):
        BoundedStaleness(tau=1, quorum=0)
    policy = BoundedStaleness(tau=1, quorum=2)
    with pytest.raises(ConfigurationError, match="fewer than n - f"):
        policy.bind(num_workers=9, f=2)
    policy = BoundedStaleness(tau=1, quorum=12)
    with pytest.raises(ConfigurationError, match="exceeds the cluster size"):
        policy.bind(num_workers=9, f=2)


# --------------------------------------------------------- registry + misc
def test_registry_lists_all_policies():
    assert {"full-sync", "quorum", "bounded-staleness"}.issubset(
        set(available_sync_policies())
    )


def test_make_sync_policy_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown sync policy"):
        make_sync_policy("does-not-exist")


def test_auto_quorum_rebinds_to_a_different_cluster_size():
    policy = Quorum()
    policy.bind(num_workers=5, f=1)
    assert policy.effective_quorum == 4
    policy.bind(num_workers=10, f=2)  # must re-resolve, not reuse 4
    assert policy.effective_quorum == 8
    assert policy.quorum is None  # the configured value is untouched
    staleness = BoundedStaleness(tau=1)
    staleness.bind(num_workers=5, f=1)
    staleness.bind(num_workers=3, f=0)
    assert staleness.effective_quorum == 3


def test_reset_clears_carried_state():
    policy = Quorum(quorum=2, stragglers="carry")
    policy.bind(num_workers=3, f=1)
    policy.collect(make_events([0.1, 0.2, 5.0]), 0, floor=1e-4)
    assert policy._pending
    policy.reset()
    assert not policy._pending


def test_rebind_clears_carried_state():
    # A reused policy instance must not leak another run's pending gradients
    # into the new trainer's first step.
    policy = Quorum(quorum=2, stragglers="carry")
    policy.bind(num_workers=3, f=1)
    policy.collect(make_events([0.1, 0.2, 5.0]), 0, floor=1e-4)
    assert policy._pending
    policy.bind(num_workers=3, f=1)
    assert not policy._pending


def test_worker_speeds_reject_non_honest_ids(tiny_dataset, tiny_model_kwargs):
    with pytest.raises(ConfigurationError, match="honest worker"):
        make_trainer(tiny_dataset, tiny_model_kwargs, worker_speeds={42: 0.5})
    with pytest.raises(ConfigurationError, match="honest worker"):
        make_trainer(
            tiny_dataset, tiny_model_kwargs, gar="multi-krum",
            num_byzantine=2, declared_f=2, attack="random",
            worker_speeds={0: 0.5},  # id 0 is Byzantine here
        )


# ----------------------------------------------- end-to-end with stragglers
def test_quorum_beats_full_sync_under_stragglers(tiny_dataset, tiny_model_kwargs):
    stragglers = StragglerModel(distribution="pareto", alpha=1.5, scale=1.0, prob=0.4)
    full = make_trainer(
        tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=2,
        straggler_model=stragglers,
    )
    quorum = make_trainer(
        tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=2,
        sync_policy="quorum", straggler_model=stragglers,
    )
    h_full = full.run(TrainerConfig(max_steps=15, eval_every=0))
    h_quorum = quorum.run(TrainerConfig(max_steps=15, eval_every=0))
    assert h_quorum.mean_step_time() < h_full.mean_step_time()
    assert h_quorum.sync_summary()["dropped_stragglers"] > 0
    assert not h_quorum.diverged


def test_bounded_staleness_training_converges(tiny_dataset, tiny_model_kwargs):
    stragglers = StragglerModel(distribution="lognormal", sigma=1.0, prob=0.5)
    trainer = make_trainer(
        tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=2,
        sync_policy="bounded-staleness", sync_kwargs={"tau": 2},
        straggler_model=stragglers,
    )
    history = trainer.run(TrainerConfig(max_steps=40, eval_every=10))
    assert not history.diverged
    assert history.final_accuracy > 0.8
    assert history.sync_summary()["max_staleness"] <= 2


def test_selection_diagnostics_surface_into_telemetry(tiny_dataset, tiny_model_kwargs):
    trainer = make_trainer(
        tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=2,
    )
    record = trainer.run_step()
    assert record.selected_workers is not None
    assert len(record.selected_workers) == 9 - 2 - 2  # m = n - f - 2
    assert record.selection_scores is not None
    assert len(record.selection_scores) == 9
    worker_ids = {w.worker_id for w in trainer.workers}
    assert set(record.selected_workers).issubset(worker_ids)


def test_persistent_slow_worker_is_routed_around_by_quorum(
    tiny_dataset, tiny_model_kwargs
):
    # Worker 8 computes at 1/20th speed: full-sync pays for it every step,
    # quorum admits the other n - f gradients and drops the straggler's.
    # The cost model is compute-bound so the slowdown dominates the path.
    speeds = {8: 0.05}
    compute_bound = CostModel(worker_gflops=0.02, server_gflops=0.05, latency_s=1e-6)
    full = make_trainer(
        tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=2,
        worker_speeds=speeds, cost_model=compute_bound,
    )
    quorum = make_trainer(
        tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=2,
        worker_speeds=speeds, sync_policy="quorum", cost_model=compute_bound,
    )
    assert full.workers[8].speed == 0.05
    r_full = full.run_step()
    r_quorum = quorum.run_step()
    assert r_quorum.compute_comm_time < r_full.compute_comm_time / 2
    # quorum = n - f = 7 of 9: the slow worker plus the next-slowest miss it.
    assert r_quorum.dropped_stragglers == 2


def test_slow_link_delay_is_routed_around_by_quorum(tiny_dataset, tiny_model_kwargs):
    from repro.cluster import DelayedChannel

    delays = {7: 1.0}
    full = make_trainer(
        tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=2,
        link_delays=delays,
    )
    quorum = make_trainer(
        tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=2,
        link_delays=delays, sync_policy="quorum",
    )
    assert isinstance(full.uplink_channels[7], DelayedChannel)
    r_full = full.run_step()
    r_quorum = quorum.run_step()
    assert r_full.compute_comm_time > 1.0  # full sync eats the slow link
    assert r_quorum.compute_comm_time < 1.0
    assert r_quorum.dropped_stragglers == 2  # quorum admits 7 of 9


def test_link_delay_rejects_non_honest_ids(tiny_dataset, tiny_model_kwargs):
    with pytest.raises(ConfigurationError, match="honest worker"):
        make_trainer(tiny_dataset, tiny_model_kwargs, link_delays={42: 0.5})
    with pytest.raises(ConfigurationError, match="honest worker"):
        make_trainer(
            tiny_dataset, tiny_model_kwargs, gar="multi-krum",
            num_byzantine=2, declared_f=2, attack="random",
            link_delays={1: 0.5},  # id 1 is Byzantine here; delay would be a no-op
        )


def test_straggler_model_requires_separate_stream_default_off(
    tiny_dataset, tiny_model_kwargs
):
    # Enabling a straggler model must not perturb the worker / channel / attack
    # streams: the loss sequence matches the deterministic run exactly.
    plain = make_trainer(tiny_dataset, tiny_model_kwargs)
    straggled = make_trainer(
        tiny_dataset, tiny_model_kwargs,
        straggler_model=StragglerModel(distribution="constant", scale=3.0),
    )
    r_plain = plain.run_step()
    r_straggled = straggled.run_step()
    assert r_plain.mean_loss == r_straggled.mean_loss
    np.testing.assert_array_equal(plain.server.parameters, straggled.server.parameters)
    # ... but the constant 3x slowdown stretches the step's wall-clock.
    assert r_straggled.compute_comm_time > r_plain.compute_comm_time
