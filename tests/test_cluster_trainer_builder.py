"""Tests for the synchronous trainer and the high-level cluster builder."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    CostModel,
    LossyChannel,
    TrainerConfig,
    allocate_devices,
    build_trainer,
)
from repro.exceptions import ConfigurationError
from repro.nn.models import mlp


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


class TestTrainerConfig:
    def test_defaults_valid(self):
        TrainerConfig()

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(max_steps=0)
        with pytest.raises(ConfigurationError):
            TrainerConfig(eval_every=-1)
        with pytest.raises(ConfigurationError):
            TrainerConfig(target_accuracy=1.5)
        with pytest.raises(ConfigurationError):
            TrainerConfig(divergence_threshold=0)


class TestBuilderValidation:
    def test_byzantine_requires_attack(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError):
            make_trainer(tiny_dataset, tiny_model_kwargs, num_byzantine=2)

    def test_too_many_byzantine(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError):
            make_trainer(
                tiny_dataset, tiny_model_kwargs, num_byzantine=9, attack="random"
            )

    def test_invalid_lossy_links(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError):
            make_trainer(tiny_dataset, tiny_model_kwargs, lossy_links=10)

    def test_corrupted_workers_bounded(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError):
            make_trainer(tiny_dataset, tiny_model_kwargs, corrupted_workers=10)

    @pytest.mark.parametrize("retired", [{"vectorized": False}, {"gar_selection": "loop"}])
    def test_retired_implementation_knobs_rejected(
        self, tiny_dataset, tiny_model_kwargs, retired
    ):
        # One path per stage: there is no implementation left to select.
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_trainer(tiny_dataset, tiny_model_kwargs, **retired)
        trainer = make_trainer(tiny_dataset, tiny_model_kwargs)
        assert not hasattr(trainer, "vectorized")
        assert not hasattr(trainer.server.gar, "selection_mode")
        with pytest.raises(TypeError, match="unexpected keyword"):
            type(trainer)(trainer.server, trainer.workers, trainer.cost_model,
                          vectorized=False)

    def test_callable_model_factory(self, tiny_dataset):
        trainer = build_trainer(
            model=lambda: mlp(input_dim=8, hidden=(12,), num_classes=3, rng=0),
            dataset=tiny_dataset,
            gar="average",
            num_workers=5,
            batch_size=8,
            seed=0,
        )
        assert trainer.server.dim == mlp(input_dim=8, hidden=(12,), num_classes=3, rng=0).num_parameters


class TestBuilderAssembly:
    def test_worker_roles(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_trainer(
            tiny_dataset, tiny_model_kwargs,
            gar="multi-krum", num_byzantine=2, declared_f=2, attack="random",
        )
        assert len(trainer.workers) == 9
        assert len(trainer.byzantine_workers) == 2
        assert len(trainer.honest_workers) == 7
        # Byzantine ids occupy the first slots.
        assert sorted(w.worker_id for w in trainer.byzantine_workers) == [0, 1]

    def test_lossy_links_assigned_to_last_workers(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_trainer(
            tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=3,
            lossy_links=3, lossy_drop_rate=0.2,
        )
        lossy_ids = [wid for wid, ch in trainer.uplink_channels.items() if isinstance(ch, LossyChannel)]
        assert sorted(lossy_ids) == [6, 7, 8]

    def test_explicit_channel_overrides(self, tiny_dataset, tiny_model_kwargs):
        channel = LossyChannel(drop_rate=0.5, rng=0)
        trainer = make_trainer(
            tiny_dataset, tiny_model_kwargs, uplink_channels={0: channel}
        )
        assert trainer.uplink_channels[0] is channel

    def test_cluster_spec_allocation(self, tiny_dataset, tiny_model_kwargs):
        cluster = ClusterSpec.homogeneous(5)
        trainer = make_trainer(tiny_dataset, tiny_model_kwargs, cluster=cluster, num_workers=4)
        assert trainer.cluster.server_node == "node0"
        assert len(trainer.cluster.worker_nodes) == 4


class TestTraining:
    def test_run_step_advances_clock_and_records(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_trainer(tiny_dataset, tiny_model_kwargs)
        record = trainer.run_step()
        assert trainer.clock.now > 0
        assert record.gradients_received == 9
        assert record.step == 0
        assert np.isfinite(record.mean_loss)

    def test_parameters_change_each_step(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_trainer(tiny_dataset, tiny_model_kwargs)
        before = trainer.server.parameters
        trainer.run_step()
        assert not np.allclose(before, trainer.server.parameters)

    def test_run_produces_history(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_trainer(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(TrainerConfig(max_steps=10, eval_every=5))
        assert history.num_updates == 10
        assert len(history.evaluations) >= 2
        assert 0.0 <= history.final_accuracy <= 1.0

    def test_training_improves_accuracy(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_trainer(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(TrainerConfig(max_steps=50, eval_every=10))
        assert history.final_accuracy > 0.8

    def test_target_accuracy_early_stop(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_trainer(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(
            TrainerConfig(max_steps=200, eval_every=5, target_accuracy=0.8)
        )
        assert history.num_updates < 200

    def test_deterministic_given_seed(self, tiny_dataset, tiny_model_kwargs):
        h1 = make_trainer(tiny_dataset, tiny_model_kwargs).run(TrainerConfig(max_steps=5, eval_every=5))
        h2 = make_trainer(tiny_dataset, tiny_model_kwargs).run(TrainerConfig(max_steps=5, eval_every=5))
        assert h1.final_accuracy == h2.final_accuracy
        assert h1.steps[-1].mean_loss == pytest.approx(h2.steps[-1].mean_loss)

    def test_eval_period_zero_disables_evaluation_during_run(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_trainer(tiny_dataset, tiny_model_kwargs)
        history = trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        # Only the final mandatory evaluation is recorded.
        assert len(history.evaluations) == 1

    def test_byzantine_attack_defeats_averaging(self, tiny_dataset, tiny_model_kwargs):
        attacked = make_trainer(
            tiny_dataset, tiny_model_kwargs, gar="average",
            num_byzantine=2, declared_f=2, attack="reversed-gradient",
        ).run(TrainerConfig(max_steps=40, eval_every=10))
        clean = make_trainer(tiny_dataset, tiny_model_kwargs, gar="average").run(
            TrainerConfig(max_steps=40, eval_every=10)
        )
        assert attacked.final_accuracy < clean.final_accuracy - 0.2 or attacked.diverged

    def test_multikrum_survives_attack(self, tiny_dataset, tiny_model_kwargs):
        history = make_trainer(
            tiny_dataset, tiny_model_kwargs, gar="multi-krum",
            num_byzantine=2, declared_f=2, attack="reversed-gradient",
        ).run(TrainerConfig(max_steps=40, eval_every=10))
        assert not history.diverged
        assert history.final_accuracy > 0.8

    def test_nan_attack_marks_averaging_diverged(self, tiny_dataset, tiny_model_kwargs):
        history = make_trainer(
            tiny_dataset, tiny_model_kwargs, gar="average",
            num_byzantine=1, declared_f=1, attack="non-finite",
        ).run(TrainerConfig(max_steps=10, eval_every=5))
        assert history.diverged

    def test_latency_breakdown_recorded(self, tiny_dataset, tiny_model_kwargs):
        trainer = make_trainer(tiny_dataset, tiny_model_kwargs, gar="multi-krum", declared_f=2)
        trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        breakdown = trainer.history.latency_breakdown()
        assert breakdown["aggregation"] > 0
        assert breakdown["compute_comm"] > 0

    def test_colocated_workers_slow_the_step_down(self, tiny_dataset, tiny_model_kwargs):
        # 8 workers on 2 nodes share compute -> longer step than 8 workers on 9 nodes.
        spread = make_trainer(
            tiny_dataset, tiny_model_kwargs, num_workers=8,
            cluster=allocate_devices(ClusterSpec.homogeneous(9), 8),
        )
        packed = make_trainer(
            tiny_dataset, tiny_model_kwargs, num_workers=8,
            cluster=allocate_devices(ClusterSpec.homogeneous(3), 8),
        )
        spread_record = spread.run_step()
        packed_record = packed.run_step()
        assert packed_record.compute_comm_time > spread_record.compute_comm_time
