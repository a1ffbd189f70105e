"""Structure-of-arrays fleet state and the fleet compute mode."""

import copy

import numpy as np
import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.fleet import FleetState
from repro.cluster.trainer import TrainerConfig
from repro.cluster.worker import HonestWorker
from repro.data.datasets import gaussian_blobs, synthetic_cifar
from repro.data.sampler import MiniBatchSampler
from repro.exceptions import ConfigurationError
from repro.nn.models.registry import make_model
from tests.replica_reference import replica


def _make_workers(n=5, *, batch_size=4, dim=6, num_classes=3, speeds=None):
    data = gaussian_blobs(num_train=60, num_test=10, num_classes=num_classes,
                          dim=dim, rng=0)
    workers = []
    for i in range(n):
        sampler = MiniBatchSampler(data.train_x, data.train_y, batch_size, rng=100 + i)
        speed = (speeds or {}).get(i, 1.0)
        workers.append(HonestWorker(i, sampler, speed=speed))
    return workers


class TestFleetState:
    def test_arrays_mirror_worker_order(self):
        workers = _make_workers(4, speeds={1: 2.0, 3: 0.5})
        gflops = {w.worker_id: 1.0 + w.worker_id for w in workers}
        fleet = FleetState(workers, worker_gflops=gflops)
        assert fleet.num_workers == 4
        np.testing.assert_array_equal(fleet.worker_ids, [0, 1, 2, 3])
        np.testing.assert_array_equal(fleet.speeds, [1.0, 2.0, 1.0, 0.5])
        # Effective throughput folds the speed multiplier into the hardware draw.
        np.testing.assert_array_equal(
            fleet.gflops, np.array([1.0, 2.0, 3.0, 4.0]) * fleet.speeds
        )
        assert fleet.row_of == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            FleetState([], worker_gflops={})

    def test_compute_times_match_scalar_cost_model_bitwise(self):
        workers = _make_workers(5, speeds={2: 3.0})
        cost = CostModel()
        gflops = {w.worker_id: 0.5 + 0.1 * w.worker_id for w in workers}
        fleet = FleetState(workers, worker_gflops=gflops)
        model = make_model("logistic", input_dim=6, num_classes=3, rng=7)
        fps = model.flops_per_sample()
        times = fleet.compute_times(cost, fps)
        for i, worker in enumerate(workers):
            expected = cost.gradient_compute_time(
                model.num_parameters,
                worker.batch_size,
                gflops=gflops[worker.worker_id] * worker.speed,
                flops_per_sample=fps,
            )
            assert times[i] == expected  # bitwise, not approx

    def test_compute_times_reject_unmeasured_flops(self):
        fleet = FleetState(_make_workers(2), worker_gflops={0: 1.0, 1: 1.0})
        with pytest.raises(ConfigurationError):
            fleet.compute_times(CostModel(), 0.0)

    def test_straggler_draws_update_the_fleet(self):
        fleet = FleetState(_make_workers(3), worker_gflops={i: 1.0 for i in range(3)})
        np.testing.assert_array_equal(
            fleet.sample_slowdowns(None, np.random.default_rng(0)), np.ones(3)
        )
        model = StragglerModel("pareto")
        drawn = fleet.sample_slowdowns(model, np.random.default_rng(5))
        np.testing.assert_array_equal(drawn, fleet.slowdowns)
        np.testing.assert_array_equal(
            drawn, model.sample(3, np.random.default_rng(5))
        )

    def test_stored_residuals_read_back_by_row_and_by_worker_id(self):
        workers = _make_workers(4)
        for worker in workers:  # ids need not be row numbers
            worker.worker_id += 10
        fleet = FleetState(workers, worker_gflops={10 + i: 1.0 for i in range(4)})
        assert fleet.ef_memory is None and not fleet.ef_has_memory.any()
        assert fleet.state_dict() == {}
        # A run of two rows, out of order, then one scalar-path row.
        fleet.remember_residuals(np.array([2, 0]), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        fleet.remember_residuals(3, np.array([7.0, -0.0, 9.0]))
        np.testing.assert_array_equal(fleet.ef_has_memory, [True, False, True, True])
        np.testing.assert_array_equal(
            fleet.ef_memory[[0, 2, 3]], [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0], [7.0, -0.0, 9.0]]
        )
        assert np.signbit(fleet.ef_memory[3, 1])
        state = fleet.state_dict()
        assert sorted(state) == [10, 12, 13]
        assert state[12].tolist() == [1.0, 2.0, 3.0]
        # The archive holds copies: a later round must not rewrite it.
        fleet.remember_residuals(2, np.zeros(3))
        assert state[12].tolist() == [1.0, 2.0, 3.0]

    def test_restore_into_rows_nothing_had_written(self):
        fleet = FleetState(_make_workers(3), worker_gflops={i: 1.0 for i in range(3)})
        restored = {2: np.array([9.0, 8.0, 7.0]), 0: [1.0, 2.0, 3.0]}
        fleet.load_state_dict(restored, dim=3)
        np.testing.assert_array_equal(fleet.ef_has_memory, [True, False, True])
        np.testing.assert_array_equal(fleet.ef_memory[2], [9.0, 8.0, 7.0])
        restored[2][0] = -1.0  # the store owns its rows
        assert fleet.ef_memory[2, 0] == 9.0
        # A second restore replaces the store: absent workers carry nothing.
        fleet.load_state_dict({1: np.ones(3)}, dim=3)
        np.testing.assert_array_equal(fleet.ef_has_memory, [False, True, False])
        assert sorted(fleet.state_dict()) == [1]

    def test_wrong_size_restore_is_a_configuration_error(self):
        fleet = FleetState(_make_workers(1), worker_gflops={0: 1.0})
        with pytest.raises(ConfigurationError, match="size 5, expected 3"):
            fleet.load_state_dict({0: np.zeros(5)}, dim=3)


class TestFleetModeGradients:
    @pytest.mark.parametrize("model,model_kwargs", [
        ("logistic", {"input_dim": 6, "num_classes": 3}),
        ("mlp", {"input_dim": 6, "hidden": (5,), "num_classes": 3}),
        ("small-cnn", {"image_size": 4, "channels": 1, "num_classes": 3, "conv_filters": 2,
                       "fc1": 6, "fc2": 4}),
    ])
    def test_rows_are_each_workers_own_backprop_on_the_shared_draw(self, model, model_kwargs):
        dataset = (
            synthetic_cifar(num_train=60, num_test=10, image_size=4, channels=1, num_classes=3,
                            rng=0)
            if model == "small-cnn"
            else gaussian_blobs(num_train=60, num_test=10, num_classes=3, dim=6, rng=0)
        )
        trainer = build_trainer(
            model=model, model_kwargs=model_kwargs, compute_mode="fleet", dataset=dataset,
            gar="median", num_workers=7, num_byzantine=0, declared_f=1, batch_size=5, seed=13,
        )
        honest = trainer.honest_workers
        draws = copy.deepcopy(trainer._fleet_sample_rng)
        parameters = trainer.server.parameters
        losses, gradients = trainer._compute_gradients(
            np.arange(len(honest)), honest, [(0, parameters)] * len(honest)
        )
        shared = honest[0].sampler
        indices = draws.integers(0, shared.num_samples, size=(len(honest), shared.batch_size))
        for i, worker in enumerate(honest):
            model = replica(trainer, worker)
            model.set_parameters(parameters)
            loss, gradient = model.loss_and_gradient(
                shared.features[indices[i]], shared.labels[indices[i]]
            )
            assert losses[i] == loss
            assert gradients[i].tobytes() == gradient.tobytes()

    @pytest.mark.parametrize("model,model_kwargs", [
        ("logistic", {"input_dim": 6, "num_classes": 3}),
        ("mlp", {"input_dim": 6, "hidden": (5,), "num_classes": 3}),
        ("mlp", {"input_dim": 6, "hidden": (5,), "num_classes": 3, "dropout": 0.5}),
        ("mlp", {"input_dim": 6, "hidden": (5,), "num_classes": 3, "l2": 0.1}),
    ], ids=["logistic", "mlp", "mlp-dropout", "mlp-l2"])
    def test_fleet_mode_takes_the_shared_draw_for_every_model(self, model, model_kwargs):
        trainer = build_trainer(
            model=model, model_kwargs=model_kwargs, compute_mode="fleet",
            dataset=gaussian_blobs(num_train=60, num_test=10, num_classes=3, dim=6, rng=0),
            gar="median", num_workers=5, num_byzantine=0, declared_f=1, batch_size=5, seed=13,
        )
        draws = trainer._fleet_sample_rng.bit_generator.state
        samplers = [w.sampler._rng.bit_generator.state for w in trainer.honest_workers]
        trainer.run(TrainerConfig(max_steps=1, eval_every=0))
        assert trainer._fleet_sample_rng.bit_generator.state != draws
        assert [w.sampler._rng.bit_generator.state for w in trainer.honest_workers] == samplers

    def test_the_shared_draw_leaves_every_worker_sampler_untouched(self):
        trainer = build_trainer(
            model="logistic", model_kwargs={"input_dim": 6, "num_classes": 3},
            compute_mode="fleet",
            dataset=gaussian_blobs(num_train=60, num_test=10, num_classes=3, dim=6, rng=0),
            gar="median", num_workers=4, num_byzantine=0, declared_f=1, batch_size=3, seed=13,
        )
        honest = trainer.honest_workers
        before = [w.sampler._rng.bit_generator.state for w in honest]
        draws = copy.deepcopy(trainer._fleet_sample_rng)
        draws.integers(0, honest[0].sampler.num_samples, size=(len(honest), 3))
        parameters = trainer.server.parameters
        trainer._compute_gradients(
            np.arange(len(honest)), honest, [(0, parameters)] * len(honest)
        )
        assert [w.sampler._rng.bit_generator.state for w in honest] == before
        # One (n, b) draw per round on the fleet stream, no more.
        assert trainer._fleet_sample_rng.bit_generator.state == draws.bit_generator.state

    def test_a_run_takes_the_shared_draw_iff_its_own_workers_share_a_training_set(self):
        # Two corrupted workers hold their own data copies, so the fleet as a
        # whole samples three training sets; a run (an async batch of
        # computes) made only of clean workers still shares one.
        trainer = build_trainer(
            model="logistic", model_kwargs={"input_dim": 6, "num_classes": 3},
            compute_mode="fleet", corrupted_workers=2,
            dataset=gaussian_blobs(num_train=60, num_test=10, num_classes=3, dim=6, rng=0),
            gar="median", num_workers=7, num_byzantine=0, declared_f=1, batch_size=3, seed=13,
        )
        honest = trainer.honest_workers
        assert trainer._fleet.training_sets.tolist() == [0, 1, 2, 2, 2, 2, 2]
        parameters = trainer.server.parameters
        for rows, shared in (([2, 4, 6], True), ([0, 3], False), ([1], True)):
            run = [honest[i] for i in rows]
            samplers = [w.sampler._rng.bit_generator.state for w in honest]
            draws = trainer._fleet_sample_rng.bit_generator.state
            trainer._compute_gradients(np.array(rows), run, [(0, parameters)] * len(run))
            assert (trainer._fleet_sample_rng.bit_generator.state != draws) is shared
            moved = [
                i for i, w in enumerate(honest) if w.sampler._rng.bit_generator.state != samplers[i]
            ]
            assert moved == ([] if shared else rows)

    def test_a_batch_count_other_than_the_snapshot_count_raises(self):
        model = make_model("logistic", input_dim=6, num_classes=3, rng=7)
        snapshots = [model.get_parameters()] * 3
        with pytest.raises(ConfigurationError, match="3 snapshots need 3 mini-batches"):
            model.stacked_loss_and_gradients(
                snapshots, np.zeros((2, 4, 6)), np.zeros((2, 4), dtype=int)
            )
        with pytest.raises(ConfigurationError, match="3 snapshots need 3 mini-batches"):
            model.stacked_loss_and_gradients(
                snapshots, np.zeros((3, 4, 6)), np.zeros((2, 4), dtype=int)
            )


class TestFleetTrainerMode:
    def _dataset(self):
        return gaussian_blobs(num_train=400, num_test=100, num_classes=4, dim=8, rng=1)

    def _build(self, **overrides):
        kwargs = dict(
            model="mlp",
            model_kwargs={"input_dim": 8, "hidden": (12,), "num_classes": 4},
            dataset=self._dataset(),
            gar="median",
            num_workers=12,
            num_byzantine=2,
            attack="sign-flip",
            batch_size=8,
            learning_rate=0.05,
            seed=13,
        )
        kwargs.update(overrides)
        return build_trainer(**kwargs)

    def test_fleet_mode_is_deterministic(self):
        histories = []
        for _ in range(2):
            trainer = self._build(compute_mode="fleet")
            histories.append(trainer.run(TrainerConfig(max_steps=5, eval_every=0)))
        assert histories[0].to_dict() == histories[1].to_dict()

    def test_fleet_mode_tracks_the_exact_trajectory(self):
        # Statistically equivalent, not bitwise: same deployment, the two
        # modes must land at comparable losses.
        exact = self._build(compute_mode="exact")
        fleet = self._build(compute_mode="fleet")
        config = TrainerConfig(max_steps=20, eval_every=0)
        h_exact = exact.run(config)
        h_fleet = fleet.run(config)
        final_exact = h_exact.steps[-1].mean_loss
        final_fleet = h_fleet.steps[-1].mean_loss
        assert np.isfinite(final_fleet)
        assert final_fleet < h_fleet.steps[0].mean_loss  # it learns
        assert final_fleet == pytest.approx(final_exact, rel=0.25)
