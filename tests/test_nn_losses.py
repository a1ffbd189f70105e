"""Tests for loss functions."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy, softmax

from tests.nn_testing import numerical_gradient


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        probs = softmax(rng.standard_normal((5, 7)) * 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
        assert np.isfinite(probs).all()

    def test_invariant_to_constant_shift(self, rng):
        logits = rng.standard_normal((3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), atol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        labels = np.array([0, 1])
        assert SoftmaxCrossEntropy().forward(logits, labels) < 1e-6

    def test_uniform_prediction_log_k(self):
        logits = np.zeros((4, 10))
        labels = np.arange(4) % 10
        loss = SoftmaxCrossEntropy().forward(logits, labels)
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_gradient_matches_numerical(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)
        loss.forward(logits, labels)
        analytic = loss.backward()

        numeric = numerical_gradient(
            lambda value: SoftmaxCrossEntropy().forward(value, labels), logits.copy()
        )
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()

    def test_invalid_labels_rejected(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((3, 4))
        with pytest.raises(ConfigurationError):
            loss.forward(logits, np.array([0, 1, 7]))
        with pytest.raises(ConfigurationError):
            loss.forward(logits, np.array([0, 1]))

    def test_1d_logits_rejected(self):
        with pytest.raises(ConfigurationError):
            SoftmaxCrossEntropy().forward(np.zeros(4), np.zeros(4, dtype=int))

    def test_negative_l2_rejected(self):
        # L2 is the model's (``Sequential(l2=...)``): the loss takes no l2 at
        # all rather than storing one it would never apply.
        for l2 in (-1.0, 0.0, 0.5):
            with pytest.raises(TypeError):
                SoftmaxCrossEntropy(l2=l2)


class TestMeanSquaredError:
    def test_zero_for_exact_prediction(self, rng):
        target = rng.standard_normal((4, 2))
        assert MeanSquaredError().forward(target, target) == 0.0

    def test_value_matches_numpy(self, rng):
        pred = rng.standard_normal((6, 3))
        target = rng.standard_normal((6, 3))
        expected = float(np.mean((pred - target) ** 2))
        assert MeanSquaredError().forward(pred, target) == pytest.approx(expected)

    def test_gradient_matches_numerical(self, rng):
        loss = MeanSquaredError()
        pred = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 3))
        loss.forward(pred, target)
        analytic = loss.backward()
        numeric = numerical_gradient(
            lambda value: MeanSquaredError().forward(value, target), pred.copy()
        )
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            MeanSquaredError().forward(rng.standard_normal((3, 2)), rng.standard_normal((3, 3)))
