"""Tests for checkpointing and summary export."""

import csv
import json

import numpy as np
import pytest

from repro.cluster.checkpoint import (
    Checkpoint,
    CheckpointManager,
    capture_training_state,
    load_checkpoint,
    load_training_state,
    restore_training_state,
    save_checkpoint,
    save_training_state,
    write_history_json,
    write_summary_csv,
)
from repro.cluster.telemetry import EvalRecord, StepRecord, TrainingHistory
from repro.exceptions import ConfigurationError


@pytest.fixture
def history():
    history = TrainingHistory()
    history.record_step(StepRecord(0, 0.1, 1.0, 0.06, 0.03, 0.01, 10))
    history.record_evaluation(EvalRecord(step=1, sim_time=0.1, accuracy=0.5))
    history.record_evaluation(EvalRecord(step=2, sim_time=0.2, accuracy=0.75))
    return history


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        checkpoint = Checkpoint(step=7, sim_time=1.5, parameters=rng.standard_normal(20))
        path = save_checkpoint(checkpoint, tmp_path / "state")
        assert path.suffix == ".npz"
        loaded = load_checkpoint(path)
        assert loaded.step == 7
        assert loaded.sim_time == pytest.approx(1.5)
        np.testing.assert_allclose(loaded.parameters, checkpoint.parameters)

    def test_invalid_checkpoint_values(self):
        with pytest.raises(ConfigurationError):
            Checkpoint(step=-1, sim_time=0.0, parameters=np.ones(3))
        with pytest.raises(ConfigurationError):
            Checkpoint(step=0, sim_time=0.0, parameters=np.ones((2, 2)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_corrupt_archive_rejected(self, tmp_path, rng):
        path = tmp_path / "bad.npz"
        np.savez(path, something_else=np.ones(3))
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)


class TestCheckpointManager:
    def test_keeps_only_latest(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path, max_to_keep=2)
        for step in (1, 2, 3):
            manager.save(Checkpoint(step=step, sim_time=float(step), parameters=rng.standard_normal(4)))
        assert len(manager.existing()) == 2
        latest = manager.latest()
        assert latest.step == 3

    def test_latest_empty(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None

    def test_invalid_max_to_keep(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, max_to_keep=0)

    def test_resume_from_checkpoint_restores_training_state(self, tmp_path, tiny_dataset,
                                                            tiny_model_kwargs):
        from repro.cluster import TrainerConfig, build_trainer

        trainer = build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="average", num_workers=5, batch_size=16, seed=0,
        )
        trainer.run(TrainerConfig(max_steps=5, eval_every=0))
        manager = CheckpointManager(tmp_path)
        manager.save(Checkpoint(step=trainer.server.step, sim_time=trainer.clock.now,
                                parameters=trainer.server.parameters))
        restored = manager.latest()
        assert restored.step == 5
        np.testing.assert_allclose(restored.parameters, trainer.server.parameters)


RESUME_POLICIES = {
    "quorum-carry": ("quorum", {"stragglers": "carry"}),
    "bounded-staleness": ("bounded-staleness", {"tau": 2}),
}


class TestTrainingStateResume:
    """Checkpoint/resume round-trips must match an uninterrupted run exactly,
    carried-gradient pool included."""

    @staticmethod
    def _make_trainer(tiny_dataset, tiny_model_kwargs, policy, kwargs):
        from repro.cluster import StragglerModel, build_trainer

        return build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="multi-krum", declared_f=2, num_workers=9, batch_size=16,
            learning_rate=5e-3, seed=0, sync_policy=policy, sync_kwargs=kwargs,
            straggler_model=StragglerModel(
                distribution="pareto", alpha=1.5, scale=1.0, prob=0.4
            ),
        )

    @pytest.mark.parametrize("name", sorted(RESUME_POLICIES))
    def test_resume_matches_uninterrupted_run(
        self, tmp_path, tiny_dataset, tiny_model_kwargs, name
    ):
        from repro.cluster import TrainerConfig

        policy, kwargs = RESUME_POLICIES[name]
        reference = self._make_trainer(tiny_dataset, tiny_model_kwargs, policy, kwargs)
        reference.run(TrainerConfig(max_steps=12, eval_every=0))

        interrupted = self._make_trainer(tiny_dataset, tiny_model_kwargs, policy, kwargs)
        interrupted.run(TrainerConfig(max_steps=6, eval_every=0))
        # The carried-gradient pool must be non-trivial for the round-trip to
        # prove anything.
        assert interrupted.sync_policy._pending or name == "quorum-carry"
        state = capture_training_state(interrupted)
        path = save_training_state(state, tmp_path / f"{name}.npz")
        reloaded = load_training_state(path)

        resumed = self._make_trainer(tiny_dataset, tiny_model_kwargs, policy, kwargs)
        restore_training_state(resumed, reloaded)
        assert resumed.server.step == 6
        assert resumed.clock.now == interrupted.clock.now
        resumed.run(TrainerConfig(max_steps=6, eval_every=0))

        np.testing.assert_array_equal(
            resumed.server.parameters, reference.server.parameters
        )
        assert resumed.clock.now == reference.clock.now
        # The resumed half reproduces the uninterrupted telemetry tail.
        tail = reference.history.steps[6:]
        for expected, actual in zip(tail, resumed.history.steps):
            assert actual.sim_time == expected.sim_time
            assert actual.gradients_received == expected.gradients_received
            assert actual.carried_gradients == expected.carried_gradients

    def test_pending_pool_survives_serialisation(
        self, tmp_path, tiny_dataset, tiny_model_kwargs
    ):
        from repro.cluster import TrainerConfig

        trainer = self._make_trainer(
            tiny_dataset, tiny_model_kwargs, "quorum", {"stragglers": "carry"}
        )
        trainer.run(TrainerConfig(max_steps=8, eval_every=0))
        pending = trainer.sync_policy._pending
        assert pending  # stragglers under a heavy tail leave a carried pool
        state = capture_training_state(trainer)
        reloaded = load_training_state(save_training_state(state, tmp_path / "st"))
        assert len(reloaded.policy_state["pending"]) == len(pending)
        restored = self._make_trainer(
            tiny_dataset, tiny_model_kwargs, "quorum", {"stragglers": "carry"}
        )
        restore_training_state(restored, reloaded)
        for original, roundtripped in zip(pending, restored.sync_policy._pending):
            assert roundtripped.message.worker_id == original.message.worker_id
            assert roundtripped.message.step == original.message.step
            assert roundtripped.arrival_time == original.arrival_time
            assert roundtripped.order == original.order
            np.testing.assert_array_equal(roundtripped.payload, original.payload)

    def test_policy_mismatch_rejected(self, tiny_dataset, tiny_model_kwargs):
        trainer = self._make_trainer(
            tiny_dataset, tiny_model_kwargs, "quorum", {"stragglers": "carry"}
        )
        state = capture_training_state(trainer)
        other = self._make_trainer(
            tiny_dataset, tiny_model_kwargs, "bounded-staleness", {"tau": 2}
        )
        with pytest.raises(ConfigurationError, match="sync policy"):
            restore_training_state(other, state)

    def test_topology_mismatch_rejected(self, tiny_dataset, tiny_model_kwargs):
        from repro.cluster import build_trainer

        trainer = self._make_trainer(
            tiny_dataset, tiny_model_kwargs, "quorum", {"stragglers": "carry"}
        )
        state = capture_training_state(trainer)
        other_size = build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="multi-krum", declared_f=2, num_workers=11, batch_size=16,
            learning_rate=5e-3, seed=0, sync_policy="quorum",
            sync_kwargs={"stragglers": "carry"},
        )
        with pytest.raises(ConfigurationError, match="RNG streams"):
            restore_training_state(other_size, state)

    def test_missing_training_state_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_training_state(tmp_path / "nope.npz")

    def test_plain_checkpoint_is_not_a_training_state(self, tmp_path, rng):
        path = save_checkpoint(
            Checkpoint(step=1, sim_time=0.5, parameters=rng.standard_normal(4)),
            tmp_path / "plain",
        )
        with pytest.raises(ConfigurationError, match="training-state"):
            load_training_state(path)


class TestSummaries:
    def test_summary_csv(self, tmp_path, history):
        path = write_summary_csv(history, tmp_path / "summary.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["step", "sim_time", "accuracy"]
        assert len(rows) == 3
        assert float(rows[2][2]) == pytest.approx(0.75)

    def test_history_json(self, tmp_path, history):
        path = write_history_json(history, tmp_path / "history.json")
        payload = json.loads(path.read_text())
        assert payload["num_updates"] == 1
        assert len(payload["evaluations"]) == 2
