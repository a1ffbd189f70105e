"""Tests for Conv2D and pooling layers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Conv2D, Flatten, GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.conv import same_padding, valid_output

from tests.nn_testing import check_layer_gradients


class TestPaddingGeometry:
    def test_same_padding_stride_1(self):
        out, before, after = same_padding(8, 5, 1)
        assert out == 8
        assert before + after == 4

    def test_same_padding_stride_2(self):
        out, _, _ = same_padding(32, 3, 2)
        assert out == 16
        out, _, _ = same_padding(7, 3, 2)
        assert out == 4

    def test_valid_output(self):
        assert valid_output(8, 3, 1) == 6
        assert valid_output(8, 3, 2) == 3
        with pytest.raises(ConfigurationError):
            valid_output(2, 3, 1)


class TestConv2D:
    def test_same_padding_preserves_spatial_size(self, rng):
        layer = Conv2D(3, 8, 5, padding="same", rng=rng)
        out = layer.forward(rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 8, 8, 8)

    def test_valid_padding_shrinks(self, rng):
        layer = Conv2D(1, 2, 3, padding="valid", rng=rng)
        out = layer.forward(rng.standard_normal((1, 1, 6, 6)))
        assert out.shape == (1, 2, 4, 4)

    def test_stride_two(self, rng):
        layer = Conv2D(1, 2, 3, stride=2, padding="same", rng=rng)
        out = layer.forward(rng.standard_normal((1, 1, 8, 8)))
        assert out.shape == (1, 2, 4, 4)

    def test_identity_kernel_reproduces_input(self):
        # A 1x1 convolution with a unit kernel and zero bias is the identity.
        layer = Conv2D(1, 1, 1, padding="same", rng=0)
        layer.weight.data[...] = 1.0
        layer.bias.data[...] = 0.0
        x = np.random.default_rng(0).standard_normal((2, 1, 5, 5))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_matches_manual_convolution(self, rng):
        # Compare a tiny VALID convolution against an explicit loop.
        layer = Conv2D(2, 3, 3, padding="valid", rng=rng)
        x = rng.standard_normal((1, 2, 5, 5))
        out = layer.forward(x)
        w, b = layer.weight.data, layer.bias.data
        for co in range(3):
            for y in range(3):
                for xx in range(3):
                    expected = b[co] + np.sum(w[co] * x[0, :, y : y + 3, xx : xx + 3])
                    assert out[0, co, y, xx] == pytest.approx(expected, rel=1e-9)

    def test_parameter_count(self):
        layer = Conv2D(3, 64, 5)
        assert layer.num_parameters == 5 * 5 * 3 * 64 + 64

    def test_wrong_channels_raise(self, rng):
        layer = Conv2D(3, 4, 3, rng=rng)
        with pytest.raises(ConfigurationError):
            layer.forward(rng.standard_normal((1, 2, 8, 8)))

    def test_invalid_padding_rejected(self):
        with pytest.raises(ConfigurationError):
            Conv2D(1, 1, 3, padding="reflect")

    def test_gradients_numerically_same_padding(self, rng):
        check_layer_gradients(Conv2D(2, 3, 3, padding="same", rng=rng), (2, 2, 4, 4), rng=rng)

    def test_gradients_numerically_strided(self, rng):
        check_layer_gradients(
            Conv2D(1, 2, 3, stride=2, padding="same", rng=rng), (2, 1, 5, 5), rng=rng
        )


class TestMaxPool2D:
    def test_semantics_valid(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2, stride=2, padding="valid").forward(x)
        np.testing.assert_allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_same_padding_output_shape(self, rng):
        pool = MaxPool2D(3, stride=2, padding="same")
        out = pool.forward(rng.standard_normal((2, 4, 9, 9)))
        assert out.shape == (2, 4, 5, 5)

    def test_backward_routes_gradient_to_argmax(self):
        x = np.array([[[[1.0, 3.0], [2.0, 0.0]]]])
        pool = MaxPool2D(2, stride=2, padding="valid")
        pool.forward(x)
        grad = pool.backward(np.array([[[[7.0]]]]))
        np.testing.assert_allclose(grad, [[[[0.0, 7.0], [0.0, 0.0]]]])

    def test_gradients_numerically(self, rng):
        # Use distinct values so the argmax is stable under epsilon-perturbation.
        pool = MaxPool2D(2, stride=2, padding="valid")
        x = np.random.default_rng(1).permutation(np.arange(32, dtype=float)).reshape(1, 2, 4, 4)
        out = pool.forward(x)
        weights = np.random.default_rng(2).standard_normal(out.shape)
        grad = pool.backward(weights)

        from tests.nn_testing import numerical_gradient

        numeric = numerical_gradient(
            lambda value: float(np.sum(weights * pool.forward(value, training=True))), x.copy(),
            epsilon=1e-3,
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-6)


class TestAvgAndGlobalPool:
    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((3, 5, 4, 4))
        out = GlobalAvgPool2D().forward(x)
        assert out.shape == (3, 5)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))

    def test_global_avg_pool_gradients(self, rng):
        check_layer_gradients(GlobalAvgPool2D(), (2, 3, 4, 4), rng=rng)


class TestFlatten:
    def test_shape(self, rng):
        out = Flatten().forward(rng.standard_normal((4, 2, 3, 3)))
        assert out.shape == (4, 18)

    def test_backward_restores_shape(self, rng):
        layer = Flatten()
        layer.forward(rng.standard_normal((4, 2, 3, 3)))
        grad = layer.backward(np.ones((4, 18)))
        assert grad.shape == (4, 2, 3, 3)
