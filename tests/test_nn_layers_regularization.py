"""Tests for Dropout and ResidualBlock."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dropout, ResidualBlock

from tests.nn_testing import check_layer_gradients


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng=0)
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_rate_zero_is_identity(self, rng):
        layer = Dropout(0.0, rng=0)
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(layer.forward(x, training=True), x)

    def test_training_mode_zeroes_roughly_rate_fraction(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        zero_fraction = float((out == 0).mean())
        assert 0.45 < zero_fraction < 0.55

    def test_inverted_scaling_preserves_expectation(self):
        layer = Dropout(0.3, rng=1)
        x = np.ones((500, 500))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=2)
        x = np.ones((10, 10))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)
        with pytest.raises(ConfigurationError):
            Dropout(-0.1)


class TestResidualBlock:
    def test_shape_preserving_block(self, rng):
        block = ResidualBlock(4, 4, rng=0)
        out = block.forward(rng.standard_normal((2, 4, 6, 6)))
        assert out.shape == (2, 4, 6, 6)
        assert block.projection is None

    def test_channel_change_uses_projection(self, rng):
        block = ResidualBlock(3, 8, rng=0)
        assert block.projection is not None
        out = block.forward(rng.standard_normal((2, 3, 6, 6)))
        assert out.shape == (2, 8, 6, 6)

    def test_stride_downsamples(self, rng):
        block = ResidualBlock(4, 8, stride=2, rng=0)
        out = block.forward(rng.standard_normal((1, 4, 8, 8)))
        assert out.shape == (1, 8, 4, 4)

    def test_parameters_include_all_convs(self):
        block = ResidualBlock(3, 8, rng=0)
        conv_params = (
            block.conv1.num_parameters + block.conv2.num_parameters + block.projection.num_parameters
        )
        assert sum(p.size for p in block.parameters()) == conv_params

    def test_zero_grad_clears_all(self, rng):
        block = ResidualBlock(3, 4, rng=0)
        x = rng.standard_normal((1, 3, 5, 5))
        out = block.forward(x)
        block.backward(np.ones_like(out))
        assert any(np.abs(p.grad).sum() > 0 for p in block.parameters())
        block.zero_grad()
        assert all(np.abs(p.grad).sum() == 0 for p in block.parameters())

    def test_gradients_numerically(self, rng):
        check_layer_gradients(
            ResidualBlock(2, 2, rng=0), (1, 2, 4, 4), rng=np.random.default_rng(9),
            atol=1e-4, rtol=1e-3,
        )
