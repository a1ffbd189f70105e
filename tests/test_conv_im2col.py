"""Numerical parity of the im2col convolution against the loop convolution.

The two implementations compute the same convolution with different
floating-point summation orders (the loop accumulates over ``kh*kw`` kernel
positions, im2col contracts the whole ``C*kh*kw`` axis at once).  The
documented contract is *statistically equivalent, not bit-identical*:
forward activations, input gradients and parameter gradients agree to
``rtol=1e-10`` (observed differences sit at a few float64 ulps, ~1e-15
relative), which is why ``impl="loop"`` stays the layer default and
``impl="im2col"`` is opt-in.

The last tests check that fleet mode leaves a conv model on exact mode's
replica loop, every convolution on the default loop implementation.
"""

import json

import numpy as np
import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import synthetic_cifar
from repro.exceptions import ConfigurationError
from repro.nn.layers import Conv2D, ResidualBlock
from repro.nn.layers.conv import col2im, im2col

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
# Convolutional models under fleet mode
# --------------------------------------------------------------------------

CONV_MODELS = {
    "resnet": ("resnet-like", {"image_size": 8, "stage_channels": (4, 8), "blocks_per_stage": 1}),
    "cnn": ("small-cnn", {"image_size": 8}),
}


def _conv_trainer(name, compute_mode):
    model, model_kwargs = CONV_MODELS[name]
    return build_trainer(
        model=model,
        model_kwargs=model_kwargs,
        dataset=synthetic_cifar(num_train=400, image_size=8, rng=3),
        gar="median",
        num_workers=6,
        num_byzantine=1,
        declared_f=1,
        attack="sign-flip",
        batch_size=8,
        learning_rate=0.05,
        seed=11,
        compute_mode=compute_mode,
    )


def _convolutions(model):
    for layer in model.layers:
        if isinstance(layer, Conv2D):
            yield layer
        elif isinstance(layer, ResidualBlock):
            yield layer.conv1
            yield layer.conv2
            if layer.projection is not None:
                yield layer.projection


@pytest.mark.parametrize("name", sorted(CONV_MODELS))
def test_conv_models_run_fleet_mode_to_exact_modes_bytes(name):
    """A conv model has no stacked pass: fleet mode runs exact mode's replica loop."""
    outcomes = []
    for compute_mode in ("exact", "fleet"):
        trainer = _conv_trainer(name, compute_mode)
        assert trainer._stacked_model is None
        history = trainer.run(TrainerConfig(max_steps=3, eval_every=0))
        assert not history.diverged
        outcomes.append((
            json.dumps(history.to_dict(), sort_keys=True),
            trainer.server.parameters.tobytes(),
        ))
    assert outcomes[0] == outcomes[1]


def test_fleet_mode_leaves_every_convolution_on_the_loop_impl():
    """No compute mode flips a layer to im2col: fleet replicas convolve as exact ones do."""
    trainer = _conv_trainer("resnet", "fleet")
    trainer.run(TrainerConfig(max_steps=1, eval_every=0))
    models = [trainer.eval_model] + [worker.model for worker in trainer.honest_workers]
    convolutions = [conv for model in models for conv in _convolutions(model)]
    # Stem plus residual-block internals (projections included) of every model.
    assert len(convolutions) > len(models)
    assert {conv.impl for conv in convolutions} == {"loop"}
