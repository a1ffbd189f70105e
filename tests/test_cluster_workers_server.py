"""Tests for workers, the parameter server, messages and telemetry."""

import numpy as np
import pytest

from repro.attacks import ReversedGradientAttack
from repro.cluster import (
    ByzantineWorker,
    CostModel,
    EvalRecord,
    GradientMessage,
    HonestWorker,
    ModelMessage,
    ParameterServer,
    StepRecord,
    TrainingHistory,
)
from repro.cluster.service import ServerFabric, parse_server_topology
from repro.core import Average, MultiKrum
from repro.data import MiniBatchSampler
from repro.exceptions import ConfigurationError, TrainingError
from repro.optim import SGD


@pytest.fixture
def sampler(tiny_dataset):
    return MiniBatchSampler(tiny_dataset.train_x, tiny_dataset.train_y, 16, rng=0)


class TestMessages:
    def test_model_message_validation(self):
        message = ModelMessage(step=0, parameters=np.zeros(10))
        assert message.dim == 10
        with pytest.raises(ConfigurationError):
            ModelMessage(step=-1, parameters=np.zeros(3))
        with pytest.raises(ConfigurationError):
            ModelMessage(step=0, parameters=np.zeros((2, 2)))

    def test_gradient_message_validation(self):
        message = GradientMessage(worker_id=3, step=1, gradient=np.ones(5), loss=0.4)
        assert message.dim == 5
        with pytest.raises(ConfigurationError):
            GradientMessage(worker_id=-1, step=0, gradient=np.ones(3))


class TestHonestWorker:
    def test_holds_its_sampler_and_no_model(self, sampler):
        worker = HonestWorker(0, sampler)
        assert worker.sampler is sampler
        assert not worker.is_byzantine
        assert not hasattr(worker, "model")

    def test_batch_size_property(self, sampler):
        assert HonestWorker(0, sampler).batch_size == 16

    def test_negative_id_rejected(self, sampler):
        with pytest.raises(ConfigurationError):
            HonestWorker(-1, sampler)


class TestByzantineWorker:
    def test_crafts_from_attack(self, rng):
        worker = ByzantineWorker(5, ReversedGradientAttack(scale=10.0), rng=0)
        honest = rng.standard_normal((6, 8))
        message = worker.craft_gradient(np.zeros(8), honest, step=2, num_byzantine=1)
        assert worker.is_byzantine
        np.testing.assert_allclose(message.gradient, -10.0 * honest.mean(axis=0))

    def test_rejects_object_without_craft(self):
        with pytest.raises(ConfigurationError):
            ByzantineWorker(1, object())

    def test_index_selects_row(self, rng):
        class TwoRowAttack:
            def craft(self, parameters, honest_gradients, num_byzantine, rng):
                return np.stack([np.zeros(4), np.ones(4)])

        worker = ByzantineWorker(2, TwoRowAttack())
        first = worker.craft_gradient(np.zeros(4), np.zeros((3, 4)), 0, num_byzantine=2, index=0)
        second = worker.craft_gradient(np.zeros(4), np.zeros((3, 4)), 0, num_byzantine=2, index=1)
        np.testing.assert_allclose(first.gradient, 0.0)
        np.testing.assert_allclose(second.gradient, 1.0)


class TestParameterServer:
    def make_server(self, dim=10, gar=None, expected=None):
        return ParameterServer(
            np.zeros(dim),
            gar if gar is not None else Average(),
            SGD(learning_rate=0.1),
            expected_workers=expected,
        )

    @staticmethod
    def aggregate(server, messages):
        """The round's server stage, on the one-actor fabric every trainer hosts."""
        fabric = ServerFabric(server, CostModel(), topology=parse_server_topology(None))
        matrix = np.stack([m.gradient for m in messages])
        return fabric.aggregate([m.worker_id for m in messages], matrix)[0].gradient

    def test_aggregate_and_update(self):
        server = self.make_server(dim=4)
        messages = [GradientMessage(i, 0, np.full(4, float(i))) for i in range(3)]
        aggregated = self.aggregate(server, messages)
        np.testing.assert_allclose(aggregated, 1.0)
        new_params = server.apply_update(aggregated)
        np.testing.assert_allclose(new_params, -0.1)
        assert server.step == 1

    def test_update_log_keeps_worker_ids_as_python_ints(self):
        server = self.make_server(dim=4)
        server.apply_update(np.zeros(4), worker_ids=np.array([7, 2, 5]))
        ids = server.update_log[-1].worker_ids
        assert ids == (7, 2, 5) and all(type(w) is int for w in ids)

    def test_rejects_unknown_worker(self):
        server = self.make_server(dim=4, expected=[0, 1])
        with pytest.raises(TrainingError) as excinfo:
            server.validate_rows([0, 9, 1], np.ones((3, 4)))
        assert str(excinfo.value) == (
            "worker 9 is not part of the deployed cluster "
            "(hardened server rejects foreign submissions)"
        )

    def test_rejects_wrong_dimension(self):
        server = self.make_server(dim=4)
        with pytest.raises(TrainingError) as excinfo:
            server.validate_rows([0], np.ones((1, 5)))
        assert str(excinfo.value) == "gradient dimensionality 5 does not match the model (4)"

    def test_rejects_empty_round(self):
        server = self.make_server(dim=4)
        with pytest.raises(TrainingError) as excinfo:
            ServerFabric(server, CostModel(), topology=parse_server_topology(None)).aggregate(
                [], np.zeros((0, 4))
            )
        assert str(excinfo.value) == "no gradients arrived this step — cannot aggregate"

    def test_rejects_non_finite_update(self):
        server = self.make_server(dim=3)
        with pytest.raises(TrainingError):
            server.apply_update(np.array([1.0, np.nan, 0.0]))

    def test_parameters_are_copies(self):
        server = self.make_server(dim=3)
        view = server.parameters
        view[:] = 99.0
        np.testing.assert_allclose(server.parameters, 0.0)

    def test_robust_gar_integration(self, rng):
        server = ParameterServer(np.zeros(6), MultiKrum(f=1), SGD(learning_rate=1.0))
        honest = [GradientMessage(i, 0, np.ones(6) + 0.01 * rng.standard_normal(6)) for i in range(5)]
        byzantine = [GradientMessage(5, 0, 1e6 * np.ones(6))]
        aggregated = self.aggregate(server, honest + byzantine)
        assert np.abs(aggregated - 1.0).max() < 0.1

    def test_invalid_initial_parameters(self):
        with pytest.raises(ConfigurationError):
            ParameterServer(np.zeros((2, 2)), Average(), SGD())


class TestTelemetry:
    def make_history(self):
        history = TrainingHistory()
        for step in range(5):
            history.record_step(
                StepRecord(
                    step=step,
                    sim_time=0.1 * (step + 1),
                    mean_loss=1.0 / (step + 1),
                    compute_comm_time=0.06,
                    aggregation_time=0.03,
                    update_time=0.01,
                    gradients_received=10,
                )
            )
            history.record_evaluation(
                EvalRecord(step=step + 1, sim_time=0.1 * (step + 1), accuracy=0.2 * (step + 1))
            )
        return history

    def test_counters(self):
        history = self.make_history()
        assert history.num_updates == 5
        assert history.total_time == pytest.approx(0.5)
        assert history.final_accuracy == pytest.approx(1.0)
        assert history.best_accuracy == pytest.approx(1.0)

    def test_time_and_updates_to_accuracy(self):
        history = self.make_history()
        assert history.time_to_accuracy(0.55) == pytest.approx(0.3)
        assert history.updates_to_accuracy(0.55) == 3
        assert history.time_to_accuracy(2.0) is None

    def test_throughput(self):
        history = self.make_history()
        assert history.throughput() == pytest.approx(50 / 0.5)

    def test_latency_breakdown(self):
        breakdown = self.make_history().latency_breakdown()
        assert breakdown["compute_comm"] == pytest.approx(0.06)
        assert breakdown["aggregation"] == pytest.approx(0.03)
        assert breakdown["total"] == pytest.approx(0.1)

    def test_empty_history(self):
        history = TrainingHistory()
        assert history.num_updates == 0
        assert history.throughput() == 0.0
        assert np.isnan(history.final_accuracy)
        assert history.latency_breakdown()["total"] == 0.0

    def test_divergence_flag(self):
        history = TrainingHistory()
        history.mark_diverged("boom")
        assert history.diverged
        assert "boom" in history.divergence_reason

    def test_to_dict_serialisable(self):
        import json

        payload = json.dumps(self.make_history().to_dict())
        assert "throughput" in payload
