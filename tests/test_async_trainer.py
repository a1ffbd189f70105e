"""Tests for the event-driven async server actor (AsyncTrainer) and the
versioned model store."""

import numpy as np
import pytest

from repro.cluster import (
    AsyncTrainer,
    CostModel,
    LossyChannel,
    StragglerModel,
    TrainerConfig,
    build_trainer,
)
from repro.cluster.sync import AdmissionPredicate, BoundedStaleness, FullSync, Quorum
from repro.exceptions import ConfigurationError


COMMON = dict(
    model="mlp",
    num_workers=9,
    batch_size=16,
    learning_rate=5e-3,
    seed=0,
)

STRAGGLERS = StragglerModel(distribution="pareto", alpha=1.5, scale=1.0, prob=0.4)


def make_async(tiny_dataset, tiny_model_kwargs, **overrides):
    kwargs = dict(COMMON)
    kwargs.update(model_kwargs=tiny_model_kwargs, dataset=tiny_dataset)
    kwargs.setdefault("gar", "multi-krum")
    kwargs.setdefault("declared_f", 2)
    kwargs.setdefault("mode", "async")
    kwargs.setdefault("sync_policy", "quorum")
    kwargs.update(overrides)
    return build_trainer(**kwargs)


# -------------------------------------------------------- admission predicate
class TestAdmissionPredicate:
    def test_quorum_policy_admission(self):
        policy = Quorum()
        policy.bind(num_workers=9, f=2)
        predicate = policy.admission()
        assert predicate.quorum == 7
        assert predicate.max_version_lag is None
        assert predicate.admit(10**6)
        assert not predicate.batch_ready(6)
        assert predicate.batch_ready(7)

    def test_bounded_staleness_defaults_to_tau(self):
        policy = BoundedStaleness(tau=2)
        policy.bind(num_workers=9, f=2)
        predicate = policy.admission()
        assert predicate.max_version_lag == 2
        assert predicate.admit(2)
        assert not predicate.admit(3)

    def test_explicit_lag_overrides_tau(self):
        policy = BoundedStaleness(tau=2)
        policy.bind(num_workers=9, f=2)
        assert policy.admission(max_version_lag=5).max_version_lag == 5

    def test_full_sync_has_no_async_form(self):
        policy = FullSync()
        policy.bind(num_workers=9, f=2)
        with pytest.raises(ConfigurationError, match="no event-stream"):
            policy.admission()

    def test_admission_before_bind_rejected(self):
        with pytest.raises(ConfigurationError, match="before bind"):
            Quorum().admission()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AdmissionPredicate(quorum=0)
        with pytest.raises(ConfigurationError):
            AdmissionPredicate(quorum=3, max_version_lag=-1)


# ------------------------------------------------------- versioned model store
class TestVersionedStore:
    def test_version_log_and_parameters_at(self, tiny_dataset, tiny_model_kwargs):
        trainer = build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="average", num_workers=5, batch_size=16, seed=0,
        )
        v0 = trainer.server.parameters
        trainer.run_step()
        trainer.run_step()
        assert trainer.server.version == 2
        assert trainer.server.retained_versions() == [0, 1, 2]
        np.testing.assert_array_equal(trainer.server.parameters_at(0), v0)
        np.testing.assert_array_equal(
            trainer.server.parameters_at(2), trainer.server.parameters
        )
        with pytest.raises(ConfigurationError, match="not in the store"):
            trainer.server.parameters_at(7)

    def test_update_log_records_batches(self, tiny_dataset, tiny_model_kwargs):
        trainer = build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="average", num_workers=5, batch_size=16, seed=0,
        )
        trainer.run_step()
        (entry,) = trainer.server.update_log
        assert entry.version == 1
        assert entry.num_gradients == 5
        assert entry.worker_ids == tuple(range(5))

    def test_retention_bound_evicts_oldest(self, tiny_dataset, tiny_model_kwargs):
        from repro.cluster import ParameterServer
        from repro.core.average import Average
        from repro.optim.sgd import SGD

        server = ParameterServer(
            np.zeros(4), Average(), SGD(learning_rate=1.0), retain_versions=2
        )
        for _ in range(3):
            server.apply_update(np.ones(4))
        assert server.retained_versions() == [2, 3]
        with pytest.raises(ConfigurationError):
            server.parameters_at(0)

    def test_invalid_retention(self):
        from repro.cluster import ParameterServer
        from repro.core.average import Average
        from repro.optim.sgd import SGD

        with pytest.raises(ConfigurationError):
            ParameterServer(np.zeros(4), Average(), SGD(), retain_versions=0)

    def test_builder_bounds_retention_by_default(self, tiny_dataset, tiny_model_kwargs):
        trainer = build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="average", num_workers=5, batch_size=16, seed=0,
        )
        assert trainer.server.retain_versions == 64


# --------------------------------------------------------------- async engine
class TestAsyncEngine:
    def test_builder_returns_async_trainer(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_async(tiny_dataset, tiny_model_kwargs)
        assert isinstance(trainer, AsyncTrainer)
        assert trainer.admission.quorum == 7

    def test_full_sync_mode_async_rejected(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="no event-stream"):
            make_async(tiny_dataset, tiny_model_kwargs, sync_policy="full-sync")

    def test_invalid_mode_rejected(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="mode"):
            make_async(tiny_dataset, tiny_model_kwargs, mode="turbo")

    def test_async_trains_and_converges(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_async(tiny_dataset, tiny_model_kwargs, straggler_model=STRAGGLERS)
        history = trainer.run(TrainerConfig(max_steps=40, eval_every=10))
        assert not history.diverged
        assert history.num_updates == 40
        assert history.final_accuracy > 0.8

    def test_async_is_deterministic(self, tiny_dataset, tiny_model_kwargs):
        runs = []
        for _ in range(2):
            trainer = make_async(
                tiny_dataset, tiny_model_kwargs, straggler_model=STRAGGLERS,
                max_version_lag=3,
            )
            history = trainer.run(TrainerConfig(max_steps=20, eval_every=0))
            runs.append((trainer, history))
        (a, ha), (b, hb) = runs
        np.testing.assert_array_equal(a.server.parameters, b.server.parameters)
        assert [r.sim_time for r in ha.steps] == [r.sim_time for r in hb.steps]
        assert ha.version_lag_histogram() == hb.version_lag_histogram()
        assert ha.worker_round_counts() == hb.worker_round_counts()

    def test_staleness_emerges_and_respects_lag_bound(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = make_async(
            tiny_dataset, tiny_model_kwargs, straggler_model=STRAGGLERS,
            max_version_lag=2,
        )
        history = trainer.run(TrainerConfig(max_steps=30, eval_every=0))
        lags = history.version_lag_histogram()
        assert max(lags) <= 2
        # Overlapping rounds make staleness >= 1 emerge organically.
        assert any(lag >= 1 for lag in lags)
        assert history.sync_summary()["max_staleness"] <= 2

    def test_async_overlaps_rounds_faster_than_full_sync(
        self, tiny_dataset, tiny_model_kwargs
    ):
        sync = build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="multi-krum", declared_f=2, straggler_model=STRAGGLERS, **{
                k: v for k, v in COMMON.items() if k != "model"
            },
        )
        h_sync = sync.run(TrainerConfig(max_steps=15, eval_every=0))
        asynchronous = make_async(
            tiny_dataset, tiny_model_kwargs, straggler_model=STRAGGLERS,
        )
        h_async = asynchronous.run(TrainerConfig(max_steps=15, eval_every=0))
        assert h_async.total_time < h_sync.total_time

    def test_server_busy_idle_accounting(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_async(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(TrainerConfig(max_steps=10, eval_every=0))
        utilisation = history.server_utilisation()
        assert utilisation["busy_time"] > 0
        assert utilisation["busy_fraction"] + utilisation["idle_fraction"] == pytest.approx(1.0)
        assert utilisation["busy_time"] + utilisation["idle_time"] == pytest.approx(
            history.total_time
        )

    def test_per_worker_timelines(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_async(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(TrainerConfig(max_steps=10, eval_every=0))
        rounds = history.worker_round_counts()
        assert set(rounds) == set(range(9))
        # Every worker keeps cycling: roughly one push per update, give or
        # take the round in flight when the run stops.
        assert all(count >= 8 for count in rounds.values())
        timeline = history.worker_timelines[0]
        assert timeline.admitted > 0
        assert timeline.compute_seconds > 0
        assert timeline.transfer_seconds > 0

    def test_async_with_byzantine_workers_still_resists(
        self, tiny_dataset, tiny_model_kwargs
    ):
        trainer = make_async(
            tiny_dataset, tiny_model_kwargs, num_byzantine=2,
            attack="reversed-gradient",
        )
        history = trainer.run(TrainerConfig(max_steps=30, eval_every=10))
        assert not history.diverged
        assert history.final_accuracy > 0.8
        # The adversary fires at every version: its submissions are counted.
        byz_rounds = history.worker_round_counts()
        assert byz_rounds[0] > 0 and byz_rounds[1] > 0

    def test_fully_lossy_transport_livelocks_into_divergence(
        self, tiny_dataset, tiny_model_kwargs
    ):
        channels = {
            worker_id: LossyChannel(drop_rate=1.0, policy="drop-gradient", rng=worker_id)
            for worker_id in range(COMMON["num_workers"])
        }
        trainer = make_async(
            tiny_dataset, tiny_model_kwargs, uplink_channels=channels,
        )
        trainer.max_events_per_update = 2000
        history = trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        assert history.diverged
        assert "livelock" in history.divergence_reason

    def test_step_records_have_async_semantics(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_async(tiny_dataset, tiny_model_kwargs, straggler_model=STRAGGLERS)
        history = trainer.run(TrainerConfig(max_steps=10, eval_every=0))
        for record in history.steps:
            assert record.gradients_received >= trainer.admission.quorum
            assert record.aggregation_time > 0
            assert record.update_time > 0
        # Simulated time is strictly increasing across updates.
        times = [r.sim_time for r in history.steps]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_invalid_async_knobs_rejected(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError, match="max_version_lag"):
            make_async(tiny_dataset, tiny_model_kwargs, max_version_lag=-1)

    def test_reordered_arrival_never_evicts_fresher_gradient(
        self, tiny_dataset, tiny_model_kwargs
    ):
        from repro.cluster import GradientMessage
        from repro.cluster.events import Event

        trainer = make_async(tiny_dataset, tiny_model_kwargs)
        dim = trainer.server.dim

        def arrive(step, fill):
            message = GradientMessage(
                worker_id=2, step=step, gradient=np.full(dim, float(fill)), loss=0.0
            )
            event = Event(time=0.0, kind="arrive", worker_id=2,
                          payload=(message, message.gradient))
            trainer._on_arrive(event)

        arrive(step=5, fill=1.0)
        # A jitter-reordered round computed on an older version arrives late:
        # it must be discarded, not replace the fresher buffered gradient.
        arrive(step=4, fill=2.0)
        assert trainer._pending.step_of(2) == 5
        np.testing.assert_array_equal(
            trainer._pending.payload_matrix(), np.full((1, dim), 1.0)
        )
        # A genuinely fresher gradient does supersede.
        arrive(step=6, fill=3.0)
        assert trainer._pending.step_of(2) == 6
        assert trainer.history.timeline_for(2).superseded == 2

    def test_async_trainer_is_not_checkpointable(self, tiny_dataset, tiny_model_kwargs):
        from repro.cluster import capture_training_state, restore_training_state

        asynchronous = make_async(tiny_dataset, tiny_model_kwargs)
        with pytest.raises(ConfigurationError, match="AsyncTrainer"):
            capture_training_state(asynchronous)
        synchronous = build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="multi-krum", declared_f=2, sync_policy="quorum",
            **{k: v for k, v in COMMON.items() if k != "model"},
        )
        state = capture_training_state(synchronous)
        with pytest.raises(ConfigurationError, match="AsyncTrainer"):
            restore_training_state(asynchronous, state)


# ------------------------------------------------- telemetry export satellite
class TestTelemetryExport:
    def test_telemetry_series_exports_async_fields(self, tiny_dataset, tiny_model_kwargs):
        from repro.experiments.export import results_to_json, telemetry_series

        trainer = make_async(tiny_dataset, tiny_model_kwargs, straggler_model=STRAGGLERS)
        history = trainer.run(TrainerConfig(max_steps=10, eval_every=0))
        series = telemetry_series(history)
        assert 0.0 < series["server_busy_fraction"] <= 1.0
        assert series["server_busy_fraction"] + series["server_idle_fraction"] == pytest.approx(1.0)
        assert set(series["worker_round_counts"]) == {str(i) for i in range(9)}
        assert all(isinstance(k, str) for k in series["version_lag_histogram"])
        # The whole series must be JSON-serialisable as exported.
        import json

        payload = json.loads(results_to_json(series))
        assert payload["worker_round_counts"]["0"] >= 8

    def test_history_to_dict_includes_engine_fields(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_async(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        payload = history.to_dict()
        assert "server_utilisation" in payload
        assert "version_lag_histogram" in payload
        assert payload["worker_timelines"]["0"]["rounds_completed"] > 0


# --------------------------------------------------- gflops-resolution satellite
class TestWorkerNodeAssignment:
    def test_workers_beyond_assignment_list_rejected(
        self, tiny_dataset, tiny_model_kwargs
    ):
        from repro.cluster import ClusterSpec, NodeSpec

        spec = ClusterSpec(
            nodes=[NodeSpec("server"), NodeSpec("node1"), NodeSpec("node2")],
            server_node="server",
            worker_nodes=["node1", "node2"],  # deployment below has 5 workers
        )
        with pytest.raises(ConfigurationError, match="no node assignment"):
            build_trainer(
                model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
                gar="average", num_workers=5, batch_size=16, seed=0, cluster=spec,
            )

    def test_matching_assignment_list_still_works(self, tiny_dataset, tiny_model_kwargs):
        from repro.cluster import ClusterSpec

        spec = ClusterSpec.homogeneous(6)
        trainer = build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="average", num_workers=5, batch_size=16, seed=0, cluster=spec,
        )
        assert len(trainer._worker_gflops) == 5
