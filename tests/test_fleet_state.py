"""Structure-of-arrays fleet state and the batched fleet compute kernel."""

import numpy as np
import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.fleet import FleetComputeKernel, FleetState, fleet_computable
from repro.cluster.trainer import TrainerConfig
from repro.cluster.worker import HonestWorker
from repro.data.datasets import gaussian_blobs, synthetic_cifar
from repro.data.sampler import MiniBatchSampler
from repro.exceptions import ConfigurationError
from repro.nn.models.registry import make_model


def _make_workers(n=5, *, batch_size=4, dim=6, num_classes=3, speeds=None):
    data = gaussian_blobs(num_train=60, num_test=10, num_classes=num_classes,
                          dim=dim, rng=0)
    workers = []
    for i in range(n):
        sampler = MiniBatchSampler(data.train_x, data.train_y, batch_size, rng=100 + i)
        model = make_model("logistic", input_dim=dim, num_classes=num_classes, rng=7)
        speed = (speeds or {}).get(i, 1.0)
        workers.append(HonestWorker(i, model, sampler, speed=speed))
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
        fps = workers[0].model.flops_per_sample()
        times = fleet.compute_times(cost, fps)
        for i, worker in enumerate(workers):
            expected = cost.gradient_compute_time(
                worker.model.num_parameters,
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


class TestFleetComputeKernel:
    def test_fleet_computable_gates_on_architecture(self):
        assert fleet_computable(make_model("logistic", input_dim=4, num_classes=3, rng=0))
        assert fleet_computable(
            make_model("mlp", input_dim=4, hidden=(8,), num_classes=3, rng=0)
        )
        # Conv/residual/pooling models batch too since the im2col kernel.
        assert fleet_computable(
            make_model(
                "resnet-like", image_size=8, stage_channels=(4,),
                blocks_per_stage=1, num_classes=3, rng=0,
            )
        )
        # Dropout draws an RNG mask per forward, which would make one
        # stacked pass diverge from per-worker passes — gated out.
        assert not fleet_computable(
            make_model(
                "mlp", input_dim=4, hidden=(8,), num_classes=3, dropout=0.5, rng=0
            )
        )

    def test_rows_match_per_worker_backprop(self):
        workers = _make_workers(6, batch_size=5)
        kernel = FleetComputeKernel(
            make_model("logistic", input_dim=6, num_classes=3, rng=7)
        )
        parameters = workers[0].model.get_parameters()
        batches = [w.sampler.sample() for w in workers]
        losses, grads = kernel.compute(
            parameters, [b[0] for b in batches], [b[1] for b in batches]
        )
        assert losses.shape == (6,) and grads.shape == (6, parameters.size)
        for i, worker in enumerate(workers):
            worker.model.set_parameters(parameters)
            loss, grad = worker.model.loss_and_gradient(*batches[i])
            assert losses[i] == pytest.approx(loss, rel=1e-12)
            np.testing.assert_allclose(grads[i], grad, rtol=1e-10, atol=1e-12)

    def test_prestacked_arrays_match_list_of_batches(self):
        workers = _make_workers(4, batch_size=3)
        kernel = FleetComputeKernel(
            make_model("logistic", input_dim=6, num_classes=3, rng=7)
        )
        parameters = workers[0].model.get_parameters()
        shared = workers[0].sampler
        indices = np.stack([w.sampler.sample_indices() for w in workers])
        stacked_losses, stacked_grads = kernel.compute(
            parameters, shared.features[indices], shared.labels[indices]
        )
        list_losses, list_grads = kernel.compute(
            parameters,
            [shared.features[row] for row in indices],
            [shared.labels[row] for row in indices],
        )
        np.testing.assert_array_equal(stacked_losses, list_losses)
        np.testing.assert_array_equal(stacked_grads, list_grads)

    def test_rejects_unsupported_model(self):
        dropout_mlp = make_model(
            "mlp", input_dim=4, hidden=(8,), num_classes=3, dropout=0.5, rng=0
        )
        with pytest.raises(ConfigurationError):
            FleetComputeKernel(dropout_mlp)

    def test_rejects_mismatched_batches(self):
        kernel = FleetComputeKernel(
            make_model("logistic", input_dim=6, num_classes=3, rng=7)
        )
        parameters = kernel.model.get_parameters()
        x = np.zeros((3, 6))
        with pytest.raises(ConfigurationError):
            kernel.compute(parameters, [x, np.zeros((2, 6))], [np.zeros(3), np.zeros(2)])
        with pytest.raises(ConfigurationError):
            kernel.compute(parameters, [], [])


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

    def test_fleet_mode_falls_back_for_unsupported_models(self):
        trainer = self._build(
            model="mlp",
            model_kwargs={
                "input_dim": 10, "hidden": (8,), "num_classes": 4, "dropout": 0.5,
            },
            dataset=gaussian_blobs(num_train=48, num_classes=4, dim=10, rng=1),
            compute_mode="fleet",
            num_workers=6,
            num_byzantine=0,
            attack=None,
            batch_size=4,
        )
        assert trainer._fleet_kernel is None  # gated out, not an error
        history = trainer.run(TrainerConfig(max_steps=1, eval_every=0))
        assert len(history.steps) == 1
