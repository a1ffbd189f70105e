"""Tests for the model zoo (registry and architectures)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn import models
from repro.nn.models import available_models, make_model


class TestRegistry:
    def test_expected_models_registered(self):
        assert {"logistic", "mlp", "cifar-cnn", "small-cnn", "resnet-like"} <= set(available_models())

    def test_make_model_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_model("not-a-model")

    def test_make_model_passes_kwargs(self):
        model = make_model("mlp", input_dim=5, hidden=(7,), num_classes=2, rng=0)
        assert model.num_parameters == 5 * 7 + 7 + 7 * 2 + 2

    @pytest.mark.parametrize("name", available_models())
    def test_num_parameters_equals_the_summed_form(self, name):
        # ``num_parameters`` is computed once from the stored shapes; it must
        # stay the count the flat parameter vector actually has.
        model = make_model(name, rng=0)
        assert model.num_parameters == sum(p.size for p in model.parameters())
        assert model.num_parameters == model.get_parameters().size
        assert isinstance(model.num_parameters, int)


class TestLogistic:
    def test_parameter_count(self):
        model = models.logistic_regression(input_dim=20, num_classes=5, rng=0)
        assert model.num_parameters == 20 * 5 + 5

    def test_forward_shape(self, rng):
        model = models.logistic_regression(input_dim=8, num_classes=3, rng=0)
        assert model.forward(rng.standard_normal((4, 8))).shape == (4, 3)


class TestMLP:
    def test_invalid_hidden_sizes(self):
        with pytest.raises(ConfigurationError):
            models.mlp(hidden=(0,))

    def test_dropout_layer_included(self):
        model = models.mlp(input_dim=4, hidden=(8,), num_classes=2, dropout=0.5, rng=0)
        layer_names = [type(layer).__name__ for layer in model.layers]
        assert "Dropout" in layer_names

    def test_deterministic_for_seed(self):
        a = models.mlp(input_dim=6, hidden=(5,), num_classes=2, rng=3).get_parameters()
        b = models.mlp(input_dim=6, hidden=(5,), num_classes=2, rng=3).get_parameters()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = models.mlp(input_dim=6, hidden=(5,), num_classes=2, rng=3).get_parameters()
        b = models.mlp(input_dim=6, hidden=(5,), num_classes=2, rng=4).get_parameters()
        assert not np.allclose(a, b)


class TestCifarCNN:
    def test_table1_parameter_count(self):
        """The full Table-1 CNN has ~1.75M parameters as reported in the paper."""
        model = models.cifar_cnn(rng=0)
        assert model.num_parameters == 1_756_426
        assert abs(model.num_parameters - 1_750_000) / 1_750_000 < 0.01

    def test_layer_sequence_matches_table1(self):
        model = models.cifar_cnn(rng=0)
        names = [type(layer).__name__ for layer in model.layers]
        assert names == [
            "Conv2D", "ReLU", "MaxPool2D",
            "Conv2D", "ReLU", "MaxPool2D",
            "Flatten", "Dense", "ReLU", "Dense", "ReLU", "Dense",
        ]

    def test_small_cnn_trains_forward_backward(self, rng):
        model = models.small_cnn(image_size=8, num_classes=4, rng=0)
        x = rng.standard_normal((4, 3, 8, 8))
        y = rng.integers(0, 4, size=4)
        loss, grad = model.loss_and_gradient(x, y)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()
        assert grad.shape == (model.num_parameters,)

    def test_small_cnn_much_smaller_than_full(self):
        assert models.small_cnn(rng=0).num_parameters < 10_000


class TestResNetLike:
    def test_forward_backward(self, rng):
        model = models.resnet_like(
            image_size=8, stage_channels=(4, 8), blocks_per_stage=1, num_classes=3, rng=0
        )
        x = rng.standard_normal((2, 3, 8, 8))
        y = rng.integers(0, 3, size=2)
        loss, grad = model.loss_and_gradient(x, y)
        assert np.isfinite(loss)
        assert grad.shape == (model.num_parameters,)

    def test_larger_than_small_cnn(self):
        large = models.resnet_like(
            image_size=8, stage_channels=(16, 32), blocks_per_stage=2, num_classes=4, rng=0
        )
        small = models.small_cnn(image_size=8, num_classes=4, rng=0)
        assert large.num_parameters > small.num_parameters

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            models.resnet_like(stage_channels=())
        with pytest.raises(ConfigurationError):
            models.resnet_like(blocks_per_stage=0)


class TestEndToEndLearning:
    def test_mlp_learns_blobs(self, tiny_dataset):
        """A few hundred SGD steps on an easy task should reach high accuracy."""
        from repro.optim import Adam

        model = models.mlp(input_dim=8, hidden=(16,), num_classes=3, rng=0)
        optimizer = Adam(learning_rate=5e-3)
        params = model.get_parameters()
        sampler_rng = np.random.default_rng(0)
        for _ in range(150):
            idx = sampler_rng.integers(0, len(tiny_dataset.train_x), size=32)
            model.set_parameters(params)
            _, grad = model.loss_and_gradient(tiny_dataset.train_x[idx], tiny_dataset.train_y[idx])
            params = optimizer.step(params, grad)
        model.set_parameters(params)
        assert model.accuracy(tiny_dataset.test_x, tiny_dataset.test_y) > 0.85
