"""The gemm-lowered ``Conv2D`` against the frozen loop convolution.

``Conv2D`` unfolds its padded input into a ``(C*kh*kw, N*out_h*out_w)``
column matrix and runs each contraction as one 2-D ``np.matmul``.  The
per-kernel-position loop it replaced is frozen in ``tests/nn_testing.py`` as
:class:`LoopConv2D`.  The two accumulate the ``C*kh*kw`` reduction in
different orders, so the contract is *equal to tolerance, not to the bit*:
forward activations, input gradients and parameter gradients agree to
``rtol=1e-10`` (observed differences sit at a few float64 ulps, ~1e-15
relative).

Each layer's gemm is bytes-equal to its slice of one stacked ``np.matmul``
over many layers' operands, which is what a stacked pass over conv models
would run.  The last tests hold whole conv models (residual blocks included)
to the oracle's loss and gradient, and check that fleet mode leaves a conv
model on exact mode's replica loop.
"""

import json

import numpy as np
import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import synthetic_cifar
from repro.nn.layers import Conv2D, ResidualBlock
from repro.nn.layers.conv import col2im, im2col
from repro.nn.models.registry import make_model
from tests.nn_testing import LoopConv2D

#: The documented parity tolerance between the live conv and the loop oracle.
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
    return LoopConv2D(3, 4, kernel, **kwargs), Conv2D(3, 4, kernel, **kwargs)


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
    assert cols.shape == (3 * kh * kw, 2 * oh * ow)
    y = rng.standard_normal(cols.shape)
    lhs = float(np.vdot(cols, y))
    rhs = float(np.vdot(padded, col2im(y, padded.shape, kh, kw, sh, sw, oh, ow)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_col2im_is_the_adjoint_of_im2col_for_rectangular_windows():
    # Kernel, stride and output sizes all differ between height and width,
    # so a swapped spatial axis in either function breaks the identity.
    rng = np.random.default_rng(3)
    padded = rng.standard_normal((3, 2, 8, 11))
    kh, kw, sh, sw, oh, ow = 3, 2, 2, 3, 3, 4
    cols = im2col(padded, kh, kw, sh, sw, oh, ow)
    assert cols.shape == (2 * kh * kw, 3 * oh * ow)
    y = rng.standard_normal(cols.shape)
    lhs = float(np.vdot(cols, y))
    rhs = float(np.vdot(padded, col2im(y, padded.shape, kh, kw, sh, sw, oh, ow)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_an_inference_forward_caches_nothing_and_backward_raises():
    conv = Conv2D(3, 4, 3, rng=0)
    x = np.random.default_rng(5).standard_normal((2, 3, 6, 6))
    out = conv(x, training=False)
    assert conv._cache is None
    assert out.tobytes() == Conv2D(3, 4, 3, rng=0)(x).tobytes()
    with pytest.raises(RuntimeError):
        conv.backward(np.ones_like(out))


def test_a_training_forward_caches_the_padded_input_and_no_columns():
    conv = Conv2D(3, 4, 5, rng=0)
    x = np.random.default_rng(4).standard_normal((2, 3, 6, 6))
    out = conv(x)
    arrays = [item for item in conv._cache if isinstance(item, np.ndarray)]
    assert [a.shape for a in arrays] == [(2, 3, 10, 10)]
    conv.backward(np.ones_like(out))
    assert [a.shape for a in conv._cache if isinstance(a, np.ndarray)] == [(2, 3, 10, 10)]


@pytest.mark.parametrize("k", [5, 19, 50])
@pytest.mark.parametrize("kernel,stride,padding", [(5, 1, "same"), (3, 2, "valid")])
def test_each_layers_gemms_are_their_slice_of_one_stacked_matmul(k, kernel, stride, padding):
    """k layers, distinct weights and batches: forward and weight grad == one stacked gemm."""
    rng = np.random.default_rng(k)
    convs = [Conv2D(3, 4, kernel, stride=stride, padding=padding, rng=seed) for seed in range(k)]
    for conv in convs:
        conv.bias.data[...] = rng.standard_normal(4)
    batches = rng.standard_normal((k, 2, 3, 9, 9))
    outputs = [conv(x) for conv, x in zip(convs, batches)]
    grads = rng.standard_normal((k,) + outputs[0].shape)
    for conv, g in zip(convs, grads):
        conv.backward(g)

    _, _, out_h, out_w = outputs[0].shape
    columns = np.stack([
        conv._columns(conv._cache[0], out_h, out_w) for conv in convs
    ])  # (k, C*kh*kw, N*out_h*out_w)
    weights = np.stack([conv.weight.data.reshape(4, -1) for conv in convs])
    g = np.ascontiguousarray(grads.transpose(0, 2, 1, 3, 4)).reshape(k, 4, -1)
    forward = np.matmul(weights, columns)
    weight_grads = np.matmul(g, columns.transpose(0, 2, 1))
    for i, conv in enumerate(convs):
        expected = (forward[i] + conv.bias.data[:, None]).reshape(4, 2, out_h, out_w)
        assert outputs[i].tobytes() == expected.transpose(1, 0, 2, 3).tobytes()
        assert conv.weight.grad.tobytes() == weight_grads[i].tobytes()


# --------------------------------------------------------------------------
# Convolutional models: against the oracle, and under fleet mode
# --------------------------------------------------------------------------

CONV_MODELS = {
    "resnet": ("resnet-like", {"image_size": 8, "stage_channels": (4, 8), "blocks_per_stage": 1}),
    "cnn": ("small-cnn", {"image_size": 8}),
}


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
def test_model_loss_and_gradient_match_the_loop_oracle(name):
    model, model_kwargs = CONV_MODELS[name]
    live = make_model(model, rng=5, **model_kwargs)
    loop = make_model(model, rng=5, **model_kwargs)
    for conv in _convolutions(loop):
        conv.__class__ = LoopConv2D  # same parameters and geometry, the loop's passes
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((4, 3, 8, 8)), rng.integers(0, 10, 4)
    live_loss, live_grad = live.loss_and_gradient(x, y)
    loop_loss, loop_grad = loop.loss_and_gradient(x, y)
    np.testing.assert_allclose(live_loss, loop_loss, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(live_grad, loop_grad, rtol=RTOL, atol=ATOL)


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

