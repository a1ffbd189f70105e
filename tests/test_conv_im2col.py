"""Numerical parity of the im2col convolution against the loop convolution.

The two implementations compute the same convolution with different
floating-point summation orders (the loop accumulates over ``kh*kw`` kernel
positions, im2col contracts the whole ``C*kh*kw`` axis at once).  The
documented contract is *statistically equivalent, not bit-identical*:
forward activations, input gradients and parameter gradients agree to
``rtol=1e-10`` (observed differences sit at a few float64 ulps, ~1e-15
relative), which is why ``impl="loop"`` stays the layer default and only
the fleet compute path — already stat-equivalent — flips layers to im2col.

The fleet-kernel half of the file checks the extension that motivated
im2col: per-worker weight gradients for Conv2D / ResidualBlock / pooling
models extracted from one stacked backward pass.
"""

import numpy as np
import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.fleet import FleetComputeKernel, fleet_computable
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import synthetic_cifar
from repro.exceptions import ConfigurationError
from repro.nn.layers import BatchNorm, Conv2D, Dense, Dropout, Flatten, ReLU
from repro.nn.layers.conv import col2im, im2col
from repro.nn.models import resnet_like, small_cnn

#: The documented parity tolerance between the two conv implementations.
RTOL = 1e-10
ATOL = 1e-12

GEOMETRIES = [
    # (kernel, stride, padding, use_bias) — odd/even kernels, both paddings,
    # strided and dense, with and without bias.
    (3, 1, "same", True),
    (3, 2, "same", True),
    (5, 1, "same", False),
    (5, 2, "valid", True),
    (2, 2, "valid", False),
    ((3, 5), (1, 2), "same", True),
]


def _twin_convs(kernel, stride, padding, use_bias):
    kwargs = dict(stride=stride, padding=padding, use_bias=use_bias, rng=1)
    loop = Conv2D(3, 4, kernel, impl="loop", **kwargs)
    fast = Conv2D(3, 4, kernel, impl="im2col", **kwargs)
    return loop, fast


@pytest.mark.parametrize("kernel,stride,padding,use_bias", GEOMETRIES)
def test_im2col_forward_backward_matches_loop(kernel, stride, padding, use_bias):
    loop, fast = _twin_convs(kernel, stride, padding, use_bias)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 9, 11))
    out_loop = loop(x)
    out_fast = fast(x)
    np.testing.assert_allclose(out_fast, out_loop, rtol=RTOL, atol=ATOL)

    grad = rng.standard_normal(out_loop.shape)
    gin_loop = loop.backward(grad)
    gin_fast = fast.backward(grad)
    np.testing.assert_allclose(gin_fast, gin_loop, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        fast.weight.grad, loop.weight.grad, rtol=RTOL, atol=ATOL
    )
    if use_bias:
        np.testing.assert_allclose(
            fast.bias.grad, loop.bias.grad, rtol=RTOL, atol=ATOL
        )


def test_im2col_forward_flops_match_loop():
    loop, fast = _twin_convs(5, 1, "same", True)
    x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
    loop(x)
    fast(x)
    assert fast.last_forward_flops == loop.last_forward_flops


def test_col2im_is_the_adjoint_of_im2col():
    # <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
    # the input-gradient path relies on.
    rng = np.random.default_rng(2)
    padded = rng.standard_normal((2, 3, 7, 7))
    kh, kw, sh, sw, oh, ow = 3, 3, 2, 2, 3, 3
    cols = im2col(padded, kh, kw, sh, sw, oh, ow)
    y = rng.standard_normal(cols.shape)
    lhs = float(np.vdot(cols, y))
    rhs = float(np.vdot(padded, col2im(y, padded.shape, kh, kw, sh, sw, oh, ow)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_impl_is_switchable_between_forwards():
    # Each backward consumes the cache its own forward produced, so
    # flipping impl between rounds is safe.
    conv = Conv2D(2, 3, 3, rng=0)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 5, 5))
    out = conv(x)
    conv.backward(np.ones_like(out))
    conv.impl = "im2col"
    out = conv(x)
    conv.backward(np.ones_like(out))  # must not raise


def test_invalid_impl_rejected():
    with pytest.raises(ConfigurationError):
        Conv2D(2, 3, 3, impl="winograd")


# --------------------------------------------------------------------------
# Fleet kernel over convolutional models
# --------------------------------------------------------------------------

def _tiny_resnet():
    return resnet_like(
        image_size=8, stage_channels=(4, 8), blocks_per_stage=1, rng=5
    )


@pytest.mark.parametrize(
    "factory,name", [(_tiny_resnet, "resnet"), (lambda: small_cnn(rng=5), "cnn")]
)
def test_fleet_kernel_matches_per_worker_backprop_on_conv_models(factory, name):
    model = factory()
    assert fleet_computable(model)
    reference = factory()
    kernel = FleetComputeKernel(model)
    rng = np.random.default_rng(0)
    n, batch = 3, 4
    params = model.get_parameters()
    xs = rng.standard_normal((n, batch, 3, 8, 8))
    ys = rng.integers(0, 10, size=(n, batch))
    losses, grads = kernel.compute(params, xs, ys)
    assert grads.shape == (n, params.size)
    for i in range(n):
        reference.set_parameters(params)
        loss, grad = reference.loss_and_gradient(xs[i], ys[i])
        np.testing.assert_allclose(losses[i], loss, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(grads[i], grad, rtol=1e-9, atol=1e-11)


def test_fleet_kernel_flips_all_convolutions_to_im2col():
    model = _tiny_resnet()
    FleetComputeKernel(model)
    convs = list(FleetComputeKernel._convolutions(model))
    assert convs  # stem + residual-block internals (incl. projections)
    assert all(conv.impl == "im2col" for conv in convs)


def test_fleet_computable_rejects_batch_statistics_and_dropout():
    base = [Conv2D(3, 4, 3, rng=0), ReLU(), Flatten(), Dense(4 * 64, 10, rng=1)]
    from repro.nn.model import Sequential

    assert fleet_computable(Sequential(base))
    assert not fleet_computable(
        Sequential([Conv2D(3, 4, 3, rng=0), BatchNorm(4), Flatten(), Dense(4 * 64, 10, rng=1)])
    )
    assert not fleet_computable(
        Sequential([Conv2D(3, 4, 3, rng=0), Dropout(0.5), Flatten(), Dense(4 * 64, 10, rng=1)])
    )
    assert not fleet_computable(Sequential([Flatten()]))  # nothing parameterised


def test_resnet_like_trains_under_fleet_compute_mode():
    trainer = build_trainer(
        model="resnet-like",
        model_kwargs={"image_size": 8, "stage_channels": (4, 8), "blocks_per_stage": 1},
        dataset=synthetic_cifar(num_train=400, image_size=8, rng=3),
        gar="median",
        num_workers=6,
        num_byzantine=1,
        declared_f=1,
        attack="sign-flip",
        batch_size=8,
        learning_rate=0.05,
        seed=11,
        compute_mode="fleet",
    )
    assert trainer._fleet_kernel is not None
    history = trainer.run(TrainerConfig(max_steps=3, eval_every=0))
    assert not history.diverged
    assert np.isfinite(trainer.server.parameters).all()
