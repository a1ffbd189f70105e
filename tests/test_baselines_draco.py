"""Tests for the Draco baseline (repetition coding + majority vote)."""

import numpy as np
import pytest

from repro.baselines import DracoConfig, DracoTrainer, RepetitionCode, majority_vote
from repro.exceptions import ConfigurationError, TrainingError


class TestMajorityVote:
    def test_unanimous(self):
        vectors = np.tile(np.arange(4.0), (3, 1))
        np.testing.assert_allclose(majority_vote(vectors), np.arange(4.0))

    def test_majority_beats_minority(self):
        honest = np.ones((2, 5))
        byzantine = -7.0 * np.ones((1, 5))
        np.testing.assert_allclose(majority_vote(np.vstack([honest, byzantine])), 1.0)

    def test_no_majority_raises(self):
        vectors = np.stack([np.zeros(3), np.ones(3), 2 * np.ones(3)])
        with pytest.raises(TrainingError):
            majority_vote(vectors)

    def test_single_replica(self):
        np.testing.assert_allclose(majority_vote(np.ones((1, 4))), 1.0)


class TestRepetitionCode:
    def test_redundancy_and_groups(self):
        code = RepetitionCode(num_workers=19, f=4)
        assert code.redundancy == 9
        assert code.num_groups == 2

    def test_group_membership(self):
        code = RepetitionCode(num_workers=9, f=1)
        assert code.redundancy == 3
        assert code.num_groups == 3
        assert code.members(0) == [0, 1, 2]

    def test_idle_workers(self):
        code = RepetitionCode(num_workers=10, f=1)
        assert code.num_groups == 3
        assert 9 not in [w for group in range(code.num_groups) for w in code.members(group)]

    def test_too_few_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            RepetitionCode(num_workers=4, f=2)

    def test_invalid_queries(self):
        code = RepetitionCode(num_workers=9, f=1)
        with pytest.raises(ConfigurationError):
            code.members(5)


class TestDracoTrainer:
    def make_trainer(self, dataset, model_kwargs, **overrides):
        config_kwargs = dict(num_workers=9, f=2, batch_size=16, max_steps=30,
                             eval_every=10, learning_rate=5e-3)
        config_kwargs.update(overrides.pop("config_overrides", {}))
        return DracoTrainer(
            model="mlp",
            model_kwargs=model_kwargs,
            dataset=dataset,
            config=DracoConfig(**config_kwargs),
            seed=0,
            **overrides,
        )

    def test_converges_without_byzantine(self, tiny_dataset, tiny_model_kwargs):
        history = self.make_trainer(tiny_dataset, tiny_model_kwargs).run()
        assert history.final_accuracy > 0.8

    def test_converges_with_byzantine_within_tolerance(self, tiny_dataset, tiny_model_kwargs):
        history = self.make_trainer(
            tiny_dataset, tiny_model_kwargs, num_byzantine=2, attack="reversed-gradient"
        ).run()
        assert history.final_accuracy > 0.8

    def test_rejects_more_byzantine_than_f(self, tiny_dataset, tiny_model_kwargs):
        with pytest.raises(ConfigurationError):
            self.make_trainer(tiny_dataset, tiny_model_kwargs, num_byzantine=3)

    def test_redundancy_slows_throughput(self, tiny_dataset, tiny_model_kwargs):
        """Draco computes 2f+1 redundant gradients per step, so its throughput is
        far below a plain synchronous deployment of the same size."""
        from repro.cluster import TrainerConfig, build_trainer

        draco_history = self.make_trainer(tiny_dataset, tiny_model_kwargs).run()
        plain = build_trainer(
            model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
            gar="average", num_workers=9, batch_size=16, learning_rate=5e-3, seed=0,
        ).run(TrainerConfig(max_steps=30, eval_every=10))
        assert draco_history.throughput() < plain.throughput() / 3

    def test_gradients_received_counts_groups(self, tiny_dataset, tiny_model_kwargs):
        trainer = self.make_trainer(tiny_dataset, tiny_model_kwargs)
        record = trainer.run_step()
        assert record.gradients_received == trainer.code.num_groups

    def test_step_time_scales_with_redundancy(self, tiny_dataset, tiny_model_kwargs):
        f1 = self.make_trainer(tiny_dataset, tiny_model_kwargs, config_overrides={"f": 1})
        f2 = self.make_trainer(tiny_dataset, tiny_model_kwargs, config_overrides={"f": 2})
        t1 = f1.run_step().step_time
        t2 = f2.run_step().step_time
        assert t2 > t1

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            DracoConfig(max_steps=0)
        with pytest.raises(ConfigurationError):
            DracoConfig(eval_every=-1)
