"""Tests for the Sequential model (flat parameter access, loss/gradient, inference)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.nn.losses import MeanSquaredError

from tests.nn_testing import numerical_gradient


@pytest.fixture
def small_model():
    return Sequential(
        [Dense(6, 8, rng=0), ReLU(), Dense(8, 3, rng=1)],
        name="test-mlp",
    )


class TestConstruction:
    def test_empty_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_non_layer_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([Dense(3, 2), "not a layer"])

    def test_negative_l2_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([Dense(3, 2)], l2=-0.1)

    def test_num_parameters(self, small_model):
        assert small_model.num_parameters == (6 * 8 + 8) + (8 * 3 + 3)

    def test_summary_mentions_every_layer(self, small_model):
        text = small_model.summary()
        assert "Dense" in text and "ReLU" in text
        assert f"{small_model.num_parameters:,}" in text


class TestFlatParameters:
    def test_get_set_roundtrip(self, small_model, rng):
        new_params = rng.standard_normal(small_model.num_parameters)
        small_model.set_parameters(new_params)
        np.testing.assert_allclose(small_model.get_parameters(), new_params)

    def test_set_parameters_wrong_size(self, small_model):
        with pytest.raises(ValueError):
            small_model.set_parameters(np.zeros(small_model.num_parameters + 1))

    def test_get_parameters_returns_copy(self, small_model):
        params = small_model.get_parameters()
        params[:] = 0.0
        assert np.abs(small_model.get_parameters()).sum() > 0

    def test_gradients_flat_shape(self, small_model, rng):
        x = rng.standard_normal((5, 6))
        y = rng.integers(0, 3, size=5)
        _, grad = small_model.loss_and_gradient(x, y)
        assert grad.shape == (small_model.num_parameters,)

    def test_zero_grad(self, small_model, rng):
        x = rng.standard_normal((5, 6))
        y = rng.integers(0, 3, size=5)
        small_model.loss_and_gradient(x, y)
        small_model.zero_grad()
        np.testing.assert_allclose(small_model.get_gradients(), 0.0)


class TestLossAndGradient:
    def test_gradient_matches_numerical(self, small_model, rng):
        x = rng.standard_normal((4, 6))
        y = rng.integers(0, 3, size=4)
        _, analytic = small_model.loss_and_gradient(x, y)

        params = small_model.get_parameters()

        def objective(flat):
            small_model.set_parameters(flat)
            outputs = small_model.forward(x, training=False)
            return small_model.loss.forward(outputs, y)

        numeric = numerical_gradient(objective, params.copy(), epsilon=1e-6)
        small_model.set_parameters(params)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-4)

    def test_does_not_change_parameters(self, small_model, rng):
        before = small_model.get_parameters()
        x = rng.standard_normal((4, 6))
        y = rng.integers(0, 3, size=4)
        small_model.loss_and_gradient(x, y)
        np.testing.assert_allclose(small_model.get_parameters(), before)

    def test_l2_regularisation_adds_parameter_term(self, rng):
        x = rng.standard_normal((4, 6))
        y = rng.integers(0, 3, size=4)
        plain = Sequential([Dense(6, 3, rng=0)], l2=0.0)
        regularised = Sequential([Dense(6, 3, rng=0)], l2=0.1)
        loss_plain, grad_plain = plain.loss_and_gradient(x, y)
        loss_reg, grad_reg = regularised.loss_and_gradient(x, y)
        params = plain.get_parameters()
        assert loss_reg == pytest.approx(loss_plain + 0.05 * float(params @ params))
        np.testing.assert_allclose(grad_reg, grad_plain + 0.1 * params, atol=1e-12)

    def test_mse_head(self, rng):
        model = Sequential([Dense(4, 1, rng=0)], loss=MeanSquaredError())
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 1))
        loss, grad = model.loss_and_gradient(x, y)
        assert np.isfinite(loss)
        assert grad.shape == (model.num_parameters,)


class TestInference:
    def test_predict_shape_and_range(self, small_model, rng):
        x = rng.standard_normal((10, 6))
        preds = small_model.predict(x)
        assert preds.shape == (10,)
        assert ((preds >= 0) & (preds < 3)).all()

    def test_batched_prediction_matches_full(self, small_model, rng):
        x = rng.standard_normal((23, 6))
        np.testing.assert_allclose(
            small_model.predict_logits(x), small_model.predict_logits(x, batch_size=5)
        )

    def test_accuracy_is_the_share_of_rows_whose_argmax_matches(self, small_model, rng):
        x = rng.standard_normal((20, 6))
        y = small_model.predict(x)
        y[:5] = (y[:5] + 1) % 3
        assert small_model.accuracy(x, y) == 0.75
        assert small_model.accuracy(x, y, batch_size=7) == 0.75

    def test_accuracy_bounds(self, small_model, rng):
        x = rng.standard_normal((20, 6))
        y = rng.integers(0, 3, size=20)
        accuracy = small_model.accuracy(x, y)
        assert 0.0 <= accuracy <= 1.0

    def test_accuracy_perfect_for_learned_labels(self, small_model, rng):
        x = rng.standard_normal((20, 6))
        y = small_model.predict(x)
        assert small_model.accuracy(x, y) == 1.0
